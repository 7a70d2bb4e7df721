package registryhygiene

// ExperimentCacheIDs is the shared fact table between static and dynamic
// enforcement of cache-key hygiene: every experiment registered in package
// greenenvy maps to the persistent-cache id prefix its repetitions are
// stored under, or "" for closed-form experiments that never touch the
// simulation cache.
//
// Two consumers keep it honest from opposite directions:
//
//   - the registryhygiene analyzer statically requires every
//     Register(Experiment{Name: ...}) call to have an entry here, and the
//     non-empty prefixes to appear as string literals in the package (the
//     cache.NewKey / registry.TestbedCell id sites), so a new experiment
//     cannot compile without declaring how it keys the cache;
//   - TestExperimentCacheIDFacts (root package) dynamically requires the
//     registered set and this table to stay in bijection and the prefixes
//     to stay collision-free, so an entry cannot go stale either.
//
// ScenarioCacheIDPrefix is the namespace every scenario-compiled experiment
// keys its cells under: "scenario/<spec-digest>/<cell>". The static table
// records the namespace; the digest part is the canonical spec's own content
// address, so it cannot be (and need not be) pinned here. The value must
// match scenario.CachePrefix — the root package cross-checks the two at
// init time, and the analyzer requires every RegisterScenario call's fact
// entry to be exactly this constant.
const ScenarioCacheIDPrefix = "scenario/"

// Figures 5–8 intentionally share the "sweep" id: they are four views over
// the one CCA sweep dataset and must share its cached repetitions.
// "aqm-matrix" is scenario-compiled (see ScenarioCacheIDPrefix).
var ExperimentCacheIDs = map[string]string{
	"fig1":               "fig1/",
	"fig2":               "fig2/",
	"fig3":               "fig3/",
	"fig4":               "fig4/",
	"fig5":               "sweep",
	"fig6":               "sweep",
	"fig7":               "sweep",
	"fig8":               "sweep",
	"theorem":            "", // closed form: no simulation, no cache entries
	"scheduler":          "", // closed form
	"frontier":           "", // closed form
	"ablations":          "", // closed form
	"incast":             "incast/",
	"fattree-incast":     "fattree-incast/",
	"crossrack":          "crossrack/",
	"samesender":         "samesender/",
	"production":         "production/",
	"workload":           "workload/",
	"workload-scale":     "workload-scale/",
	"workload-crossover": "workload-crossover/",
	"aqm-matrix":         ScenarioCacheIDPrefix,
}
