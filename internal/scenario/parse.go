package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// ParseJSON decodes a spec from its JSON file form. Unknown fields are
// rejected so a typo'd key fails loudly instead of silently running the
// default experiment.
func ParseJSON(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, errf("parse json: %w", err)
	}
	// A trailing second document would silently be ignored otherwise.
	if dec.More() {
		return Spec{}, errf("parse json: trailing data after the spec object")
	}
	return s, nil
}

// LoadFile reads and parses a spec file. JSON is the one file form, so any
// extension other than .json is rejected.
func LoadFile(path string) (Spec, error) {
	if ext := strings.ToLower(filepath.Ext(path)); ext != ".json" {
		return Spec{}, errf("load %s: unsupported extension %q (want .json)", path, ext)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, errf("load %s: %w", path, err)
	}
	s, err := ParseJSON(data)
	if err != nil {
		return Spec{}, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}
