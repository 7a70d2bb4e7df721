package registry

import (
	"fmt"
	"runtime"

	"greenenvy/internal/sim"
)

// Options scales the experiment runners. The zero value gives a fast,
// laptop-friendly configuration; Paper() gives the paper's full parameters.
type Options struct {
	// Reps is the number of repetitions per scenario (the paper uses 10).
	// Default 3.
	Reps int
	// Scale multiplies the paper's transfer sizes, in (0, 1]. The CCA
	// sweep (Figures 5–8) moves 50 GB per run at Scale 1; the default
	// 0.04 moves 2 GB, preserving every steady-state ratio while keeping
	// runs short. Figures 1–4 use the paper's sizes already at Scale 1
	// and honor Scale likewise.
	Scale float64
	// Seed drives all randomness. Default 1.
	Seed uint64
	// Workers bounds how many simulator runs execute concurrently. Each
	// repetition is an independent, seed-deterministic engine, so results
	// are byte-identical for every worker count; only wall-clock time
	// changes. Default runtime.GOMAXPROCS(0); 1 forces the serial path.
	Workers int
	// CacheDir, when set, enables the persistent content-addressed result
	// cache: every (experiment cell, repetition) simulation result is
	// memoized on disk keyed by its result-affecting inputs plus the
	// simulator version stamp (see VersionStamp), so repeated runs —
	// same or higher Reps, any Workers — replay from disk instead of
	// simulating, with byte-identical results. Empty disables persistence
	// and forces full recomputation (the in-process sweep cache still
	// applies).
	CacheDir string
	// Verbose, when set, makes runners print progress lines.
	Verbose bool
	// cacheID is the CacheID of the registered experiment running under
	// these options, stamped by the Run that Register stores. Options
	// that no registered experiment stamped carry none, and CacheKey
	// checks nothing for them.
	cacheID string
}

// WithDefaults fills unset fields and validates the rest. Every Run* entry
// point calls it first and returns its error — bad caller input is an
// error, never a panic.
func (o Options) WithDefaults() (Options, error) {
	if o.Reps == 0 {
		o.Reps = 3
	}
	if o.Reps < 0 {
		return Options{}, fmt.Errorf("greenenvy: Reps %d negative", o.Reps)
	}
	if o.Scale == 0 {
		o.Scale = 0.04
	}
	if !(o.Scale > 0 && o.Scale <= 1) { // also rejects NaN
		return Options{}, fmt.Errorf("greenenvy: Scale %v out of (0, 1]", o.Scale)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o, nil
}

// Paper returns the paper's full experiment parameters: 10 repetitions,
// full 50 GB transfers. Expect the CCA sweep to take a long while.
func Paper() Options { return Options{Reps: 10, Scale: 1.0} }

// Logf prints a progress line when Verbose is set.
func (o Options) Logf(format string, args ...any) {
	if o.Verbose {
		fmt.Printf(format+"\n", args...)
	}
}

// PaperGbit is 1 Gbit in bytes: the Figure 1 flows each move 10 Gbit.
const PaperGbit = 1_000_000_000 / 8

// DeadlineFor bounds a run generously: assume at least 500 Mb/s of
// progress plus a 10 s margin.
func DeadlineFor(bytes uint64) sim.Duration {
	return sim.Duration(bytes*8/500e6+10) * sim.Second
}
