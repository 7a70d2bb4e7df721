// Package registry is the experiment catalogue and shared run harness the
// root package and the scenario compiler both target. An experiment
// registers once — name, aliases, description, paper section, cache
// namespace, run function — and the shared tooling (cmd/greenbench, the
// registry tests, the scenario compiler, future sweep drivers) discovers it
// from here instead of hard-coding a dispatch switch per figure.
//
// The package also owns Options (the uniform runner configuration), the
// run harness (an experiment declares its Cells and one Run call puts every
// (cell, repetition) task on one worker pool) and the persistent-cache
// plumbing Run threads through, so a compiled scenario runs through exactly
// the machinery the handwritten figures use.
package registry

import (
	"fmt"
	"sort"
	"strings"
)

// Result is the uniform product of every registered experiment: the rows
// the paper reports as aligned text, and a self-contained SVG rendering of
// the figure. Analytic reports without a natural chart render their text as
// an SVG panel (see plot.TextPanel), so both methods always succeed on a
// successfully computed result.
type Result interface {
	// Table renders the experiment's rows as aligned text, mirroring what
	// the paper reports.
	Table() string
	// SVG renders the experiment as a self-contained SVG document.
	SVG() (string, error)
}

// Experiment describes one registered scenario. Adding an experiment is one
// Register call (conventionally from an init function next to the runner, or
// from scenario.Compile for spec-defined experiments); greenbench's
// -fig list/-fig all and the registry tests pick it up with no further
// plumbing.
type Experiment struct {
	// Name is the canonical identifier ("fig1", "incast"). It is the -fig
	// argument, the SVG file name, and must be unique across the registry.
	Name string
	// Aliases also resolve to this experiment ("1" for "fig1").
	Aliases []string
	// Description is a one-line summary for listings.
	Description string
	// Section names the paper section the experiment reproduces ("§4.1").
	Section string
	// Order positions the experiment in Experiments() — and so in
	// greenbench -fig all — lower first; ties keep registration order.
	Order int
	// CacheID is the prefix of every persistent-cache id the experiment
	// stores results under ("fig1/"), or empty for a closed-form
	// experiment that stores none. Register rejects a CacheID that equals
	// or nests inside another experiment's, and the Run it stores rejects
	// every cache key outside it (see Options.CacheKey), so no experiment
	// can replay another's results as its own.
	CacheID string
	// Run executes the experiment. It must validate its Options (returning
	// an error, never panicking, on bad input) and honor Reps, Scale,
	// Seed, Workers, CacheDir, and Verbose as applicable.
	Run func(Options) (Result, error)
}

var (
	experimentList  []Experiment
	experimentIndex = map[string]int{} // canonical name and aliases → index
)

// sharedCacheIDs are the namespaces several experiments may declare.
// Figures 5–8 are four views of the one cached CCA sweep, and every
// scenario-compiled experiment keys its cells under its own spec digest
// inside scenario.CachePrefix.
var sharedCacheIDs = map[string]bool{"sweep": true, "scenario/": true}

// Register adds an experiment to the registry. It panics on a missing name
// or run function, on name/alias collisions and on a CacheID that equals or
// nests inside another experiment's (unless both declare the same shared
// namespace): registration happens at init time, so a conflict is a
// programmer error, not a runtime condition. The stored Run stamps the
// experiment's CacheID into its Options before running it.
func Register(e Experiment) {
	if e.Name == "" || e.Run == nil {
		panic("greenenvy: Register: experiment needs a Name and a Run function")
	}
	for _, key := range append([]string{e.Name}, e.Aliases...) {
		if _, dup := experimentIndex[key]; dup {
			panic(fmt.Sprintf("greenenvy: Register: %q already registered", key))
		}
	}
	for _, other := range experimentList {
		a, b := e.CacheID, other.CacheID
		if a == "" || b == "" || (a == b && sharedCacheIDs[a]) {
			continue
		}
		if strings.HasPrefix(a, b) || strings.HasPrefix(b, a) {
			panic(fmt.Sprintf("greenenvy: Register: %s's CacheID %q overlaps %s's %q", e.Name, a, other.Name, b))
		}
	}
	run, id := e.Run, e.CacheID
	e.Run = func(o Options) (Result, error) {
		o.cacheID = id
		return run(o)
	}
	experimentList = append(experimentList, e)
	idx := len(experimentList) - 1
	experimentIndex[e.Name] = idx
	for _, a := range e.Aliases {
		experimentIndex[a] = idx
	}
}

// Experiments returns every registered experiment sorted by Order (ties
// keep registration order). The slice is a copy; callers may reorder it.
func Experiments() []Experiment {
	out := make([]Experiment, len(experimentList))
	copy(out, experimentList)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Order < out[j].Order })
	return out
}

// Lookup resolves a canonical name or alias to its experiment.
func Lookup(name string) (Experiment, bool) {
	i, ok := experimentIndex[name]
	if !ok {
		return Experiment{}, false
	}
	return experimentList[i], true
}

// Names returns the canonical names in Experiments() order.
func Names() []string {
	exps := Experiments()
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.Name
	}
	return names
}
