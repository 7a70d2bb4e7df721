package scenario

import (
	"encoding/json"
	"os"
	"testing"
)

// FuzzSpec drives the spec boundary with arbitrary bytes: the input is
// parsed as JSON, then canonicalized, digested and compiled. Spec files are
// outside input, so the pipeline must hold two properties:
//
//  1. it never panics, whatever the input — a bad spec is an error;
//  2. canonicalization is idempotent: canonicalizing an already canonical
//     spec succeeds and keeps its digest, so a spec's cache lineage does
//     not depend on how many times it was normalized.
func FuzzSpec(f *testing.F) {
	unequalRTT, err := os.ReadFile("../../examples/scenarios/unequal-rtt.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(unequalRTT)
	matrix, err := json.Marshal(AQMMatrix())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(matrix)
	f.Add([]byte(minimalMatrix))
	f.Add([]byte(explicitMatrix))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseJSON(data)
		if err != nil {
			return
		}
		c, err := spec.Canonical()
		if err != nil {
			return
		}
		digest, err := c.Digest()
		if err != nil {
			t.Fatalf("canonical spec does not digest: %v", err)
		}
		again, err := c.Canonical()
		if err != nil {
			t.Fatalf("canonical spec fails to re-canonicalize: %v", err)
		}
		if d, err := again.Digest(); err != nil || d != digest {
			t.Fatalf("re-canonicalizing moved the digest: %s -> %s (%v)", digest, d, err)
		}
		if _, err := Compile(spec); err != nil {
			t.Fatalf("canonicalized spec does not compile: %v", err)
		}
	})
}
