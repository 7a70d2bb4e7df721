package cachelineage_test

import (
	"testing"

	"greenenvy/internal/analysis/analysistest"
	"greenenvy/internal/analysis/cachelineage"
)

// TestCachelineage runs the analyzer over stand-in option/spec types with
// a test-local fact table, exercising every rule: table/struct bijection
// (including the seeded un-keyed physics field Extra), canon bijection,
// and Exempt/Presentation flow into a physics carrier.
func TestCachelineage(t *testing.T) {
	a := cachelineage.New([]cachelineage.Audit{
		{
			Struct: "Options",
			Canon:  "goodKey",
			Fields: map[string]cachelineage.Class{
				"Reps":    cachelineage.KeyPhysics,
				"Seed":    cachelineage.KeyPhysics,
				"Workers": cachelineage.Exempt,
				"Verbose": cachelineage.Exempt,
			},
			Carriers: []string{"SimConfig"},
		},
		{
			Struct: "Leaky",
			Canon:  "leakyKey",
			Fields: map[string]cachelineage.Class{
				"Bytes":   cachelineage.KeyPhysics,
				"Delay":   cachelineage.KeyPhysics,
				"Title":   cachelineage.Presentation,
				"Workers": cachelineage.Exempt,
				"Ghost":   cachelineage.Exempt,
			},
			Carriers: []string{"SimConfig"},
		},
	})
	analysistest.Run(t, "testdata", a)
}
