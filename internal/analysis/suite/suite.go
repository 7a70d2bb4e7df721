// Package suite declares which analyzer guards which packages: the single
// source of truth the greenvet driver (standalone and vettool mode alike)
// consults before running an analyzer over a package.
//
// The scoping is deliberate, not a convenience:
//
//   - determinism rules (nodeterminism, floatorder) apply to every package
//     whose output reaches an experiment result — the simulator core, the
//     protocol stack, the harness/registry root package, stats, plotting —
//     but not to cmd/ (bench timing legitimately reads the wall clock) or
//     to rapl (it models real hardware counters, which is the point);
//   - shardsafety applies where the sharded engine's vocabulary means the
//     real thing: the engine itself, the partitioned topology, and the
//     harness that drives per-shard runs.
//
// Cache keys are not checked here: internal/registry checks namespaces
// where keys are built (Register and Options.CacheKey), and tests check
// lineage by running the code (TestSweepKeyAuditsOptionsFields,
// TestDigestAuditsSpecFields, TestScenarioRetitleKeepsPhysics and the
// exempt pass of TestEveryExperimentRunsAtTinyScale). Allocations are not
// checked here either: a map-order or wall-clock dependence may not show in
// any one run, but an allocation count always does, so the simulator
// packages' allocation gates count them on the paths they run.
package suite

import (
	"greenenvy/internal/analysis"
	"greenenvy/internal/analysis/floatorder"
	"greenenvy/internal/analysis/nodeterminism"
	"greenenvy/internal/analysis/shardsafety"
)

// Scoped pairs an analyzer with the packages it applies to.
type Scoped struct {
	Analyzer *analysis.Analyzer
	// Paths are the exact import paths the analyzer runs over.
	Paths []string
}

// AppliesTo reports whether the analyzer covers importPath.
func (s Scoped) AppliesTo(importPath string) bool {
	for _, p := range s.Paths {
		if p == importPath {
			return true
		}
	}
	return false
}

// resultAffecting are the packages whose code can change experiment
// results: everything between a seed and a rendered table/SVG.
var resultAffecting = []string{
	"greenenvy",
	"greenenvy/internal/registry",
	"greenenvy/internal/scenario",
	"greenenvy/internal/sim",
	"greenenvy/internal/netsim",
	"greenenvy/internal/tcp",
	"greenenvy/internal/cca",
	"greenenvy/internal/energy",
	"greenenvy/internal/iperf",
	"greenenvy/internal/core",
	"greenenvy/internal/testbed",
	"greenenvy/internal/stats",
	"greenenvy/internal/workload",
	"greenenvy/internal/plot",
	"greenenvy/internal/cache",
}

// shardSafe are the packages where shardsafety's type vocabulary
// (ShardGroup, Conduit, Link, Testbed) means the real sharded engine.
var shardSafe = []string{
	"greenenvy/internal/sim",
	"greenenvy/internal/netsim",
	"greenenvy/internal/testbed",
}

// Suite returns every analyzer with its package scope.
func Suite() []Scoped {
	return []Scoped{
		{Analyzer: nodeterminism.Analyzer, Paths: resultAffecting},
		{Analyzer: floatorder.Analyzer, Paths: resultAffecting},
		{Analyzer: shardsafety.Analyzer, Paths: shardSafe},
	}
}
