package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// CachePrefix namespaces every scenario-compiled experiment's persistent
// cache ids: "scenario/<digest12>/<cell>". It is each compiled experiment's
// registry CacheID, a namespace the registry lets every compiled spec
// share: the digest part keeps distinct specs' cells apart.
const CachePrefix = "scenario/"

// digestPayload is the physics of a spec — everything that can change a
// simulated result. Presentation metadata (name, description, section,
// order) is deliberately excluded: retitling an experiment must not discard
// its cached repetitions, while any change to topology, flows, loads, or
// sweep axes must.
type digestPayload struct {
	Preset   string   `json:"preset,omitempty"`
	Topology Topology `json:"topology"`
	Flows    []Flow   `json:"flows,omitempty"`
	Loads    []Load   `json:"loads,omitempty"`
	Sweep    *Sweep   `json:"sweep,omitempty"`
}

// Canonical returns the spec with every default resolved — the normal form
// the digest is computed over. Two spellings of the same experiment
// (omitted vs explicit defaults, any key order) canonicalize identically;
// an invalid spec errors with the field that failed.
func (s Spec) Canonical() (Spec, error) {
	return s.withDefaults()
}

// Digest returns the full SHA-256 hex digest of the canonical spec's
// physics fields.
func (s Spec) Digest() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	payload, err := json.Marshal(digestPayload{
		Preset:   c.Preset,
		Topology: c.Topology,
		Flows:    c.Flows,
		Loads:    c.Loads,
		Sweep:    c.Sweep,
	})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:]), nil
}

// CacheID returns the experiment's persistent-cache id prefix:
// CachePrefix plus the first 12 hex digits of the spec digest. Every cell
// id the compiled experiment stores repetitions under extends this prefix.
func (s Spec) CacheID() (string, error) {
	d, err := s.Digest()
	if err != nil {
		return "", err
	}
	return CachePrefix + d[:12], nil
}
