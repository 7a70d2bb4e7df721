// Package suite declares what greenvet checks and where: two determinism
// analyzers, nodeterminism and floatorder, over every package whose code can
// change an experiment result, and nothing else. It is the single source of
// truth the greenvet driver consults before analyzing a package.
//
// The guarded packages run from a seed to a rendered table or SVG: the
// simulator core, the protocol stack, the energy model and its RAPL
// emulation, the harness/registry root package, stats, plotting and the
// result cache. TestSuiteClassifiesEveryPackage holds every package in the
// module to this list: one that is not guarded must sit in that test's
// exempt table with its reason (cmd/ times benchmarks by the wall clock, for
// one), so a new or renamed package cannot escape both analyzers unseen.
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
	"slices"

	"greenenvy/internal/analysis"
	"greenenvy/internal/analysis/floatorder"
	"greenenvy/internal/analysis/nodeterminism"
)

// Analyzers are the checks greenvet runs over every guarded package.
var Analyzers = []*analysis.Analyzer{nodeterminism.Analyzer, floatorder.Analyzer}

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
	"greenenvy/internal/rapl",
	"greenenvy/internal/iperf",
	"greenenvy/internal/core",
	"greenenvy/internal/testbed",
	"greenenvy/internal/stats",
	"greenenvy/internal/workload",
	"greenenvy/internal/plot",
	"greenenvy/internal/cache",
}

// Guards reports whether greenvet analyzes the package at importPath.
func Guards(importPath string) bool {
	return slices.Contains(resultAffecting, importPath)
}
