package greenenvy

import "greenenvy/internal/registry"

// Options, the experiment catalogue, the run harness and the
// persistent result cache live in internal/registry, so the scenario
// compiler (internal/scenario) can target them without importing the root
// package. The root package's experiments call the registry directly; this
// file re-exports the part of its API that external callers use.

// Options scales the experiment runners. The zero value gives a fast,
// laptop-friendly configuration; Paper() gives the paper's full parameters.
// See registry.Options for field documentation.
type Options = registry.Options

// Paper returns the paper's full experiment parameters: 10 repetitions,
// full 50 GB transfers. Expect the CCA sweep to take a long while.
func Paper() Options { return registry.Paper() }

// Result is the uniform product of every registered experiment: the rows
// the paper reports as aligned text, and a self-contained SVG rendering of
// the figure. See registry.Result.
type Result = registry.Result

// Experiment describes one registered scenario. See registry.Experiment.
type Experiment = registry.Experiment

// Register adds an experiment to the registry. It panics on a missing name
// or run function, on name/alias collisions and on overlapping CacheIDs:
// registration happens at init time, so a conflict is a programmer error,
// not a runtime condition. See registry.Register.
func Register(e Experiment) { registry.Register(e) }

// Experiments returns every registered experiment sorted by Order (ties
// keep registration order). The slice is a copy; callers may reorder it.
func Experiments() []Experiment { return registry.Experiments() }

// LookupExperiment resolves a canonical name or alias to its experiment.
func LookupExperiment(name string) (Experiment, bool) { return registry.Lookup(name) }

// ExperimentNames returns the canonical names in Experiments() order.
func ExperimentNames() []string { return registry.Names() }

// CacheStats is this process's accumulated accounting for one persistent
// cache directory. See registry.CacheStats.
type CacheStats = registry.CacheStats

// CacheStatsFor returns the hit/miss/bytes accounting accumulated by this
// process for the cache at dir (zero if the dir was never used).
func CacheStatsFor(dir string) CacheStats { return registry.CacheStatsFor(dir) }

// ClearCache empties the persistent result cache at dir (all entries, all
// version stamps). The directory stays usable.
func ClearCache(dir string) error { return registry.ClearCache(dir) }

// DefaultCacheDir is the conventional per-user cache location
// (os.UserCacheDir()/greenenvy), or "" when the platform defines none.
func DefaultCacheDir() string { return registry.DefaultCacheDir() }
