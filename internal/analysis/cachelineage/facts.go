package cachelineage

// Audits is the shared fact table between static and dynamic enforcement
// of cache-key lineage, the compile-time face of the classification that
// TestSweepKeyAuditsOptionsFields (root package) and the scenario digest
// tests enforce dynamically:
//
//   - registry.Options (aliased as the root package's Options): Reps,
//     Scale, and Seed are the result-affecting sweep inputs and form
//     sweepKey; Workers, CacheDir, and Verbose change wall-clock,
//     persistence, and logging only, and the unexported cacheID only
//     names the namespace CacheKey checks keys against, so none of them
//     may reach a simulation input.
//   - scenario.Spec: Preset, Topology, Flows, Loads, and Sweep are the
//     physics a spec digest is computed over (digestPayload); Name,
//     Description, Section, and Order are presentation — retitling an
//     experiment must not discard its cached repetitions, so they must
//     stay out of Digest and out of every compiled simulation input.
//
// The carrier lists name the structs that parameterize actual simulation
// physics; an Exempt or Presentation field flowing into one is a lineage
// leak even if the canonical key is currently right.
var Audits = []Audit{
	{
		Struct: "Options",
		Canon:  "sweepKey",
		Fields: map[string]Class{
			"Reps":     KeyPhysics,
			"Scale":    KeyPhysics,
			"Seed":     KeyPhysics,
			"Workers":  Exempt,
			"CacheDir": Exempt,
			"Verbose":  Exempt,
			"cacheID":  Exempt,
		},
		Carriers: []string{"testbed.Options", "netsim.DumbbellConfig", "netsim.FatTreeConfig", "iperf.Spec"},
	},
	{
		Struct: "Spec",
		Canon:  "Digest",
		Fields: map[string]Class{
			"Preset":      KeyPhysics,
			"Topology":    KeyPhysics,
			"Flows":       KeyPhysics,
			"Loads":       KeyPhysics,
			"Sweep":       KeyPhysics,
			"Name":        Presentation,
			"Description": Presentation,
			"Section":     Presentation,
			"Order":       Presentation,
		},
		Carriers: []string{"testbed.Options", "netsim.DumbbellConfig", "netsim.FatTreeConfig", "iperf.Spec"},
	},
}
