package registry

import (
	"fmt"
	"sync"
	"sync/atomic"

	"greenenvy/internal/sim"
	"greenenvy/internal/stats"
	"greenenvy/internal/testbed"
)

// This file is the shared run harness behind the registered experiments.
// An experiment declares its cells — a persistent-cache key and a
// per-repetition run function each — and Run owns the rest: derived seeds,
// one worker pool over every (cell, repetition) task, and persistent-cache
// threading. Aggregate covers the per-cell metric summary most figures
// report. Experiments keep only their scenario construction and result
// interpretation.

// Cell is one experiment cell: Options.Reps repetitions of Run, each at its
// own derived seed and cached under Key plus that seed.
type Cell[R any] struct {
	// Key names the cell in the persistent cache. It must encode every
	// result-affecting parameter that the repetition seed does not already
	// capture (transfer bytes, rates, loads, topology, CCA, MTU, ...). Its
	// first part is the key kind: "run" (TestbedCell), "stream" (so the
	// StreamResult gob shape evolves independently of RunResult's) or
	// "sweep". Its id part must begin with the running experiment's
	// CacheID (see Options.CacheKey). cache.NewKey tags each part by type:
	// an int and a uint64 of the same value are different keys.
	Key []any
	// Run executes one repetition. It must build its own engine and must
	// not capture state shared across repetitions; two cells with the same
	// Key must produce identical results for the same seed.
	Run func(seed uint64) (R, error)
}

// BuildFunc constructs one repetition's testbed from its derived seed.
type BuildFunc = func(seed uint64) (*testbed.Testbed, error)

// TestbedCell is the common cell: build a testbed per repetition and run it
// to deadline, cached under the "run" kind.
func TestbedCell(id string, deadline sim.Duration, build BuildFunc) Cell[testbed.RunResult] {
	return Cell[testbed.RunResult]{
		Key: []any{"run", id},
		Run: func(seed uint64) (testbed.RunResult, error) {
			tb, err := build(seed)
			if err != nil {
				return testbed.RunResult{}, err
			}
			return tb.Run(deadline)
		},
	}
}

// Run executes Options.Reps repetitions of every cell on one pool of
// Options.Workers goroutines and returns runs[cell][rep] in declaration
// order. Tasks are claimed in cell-major order, so no cell waits for
// another's slowest repetition. Repetition rep runs at seed
// sim.NewRNG(Seed).Split(rep) in every cell, so results are byte-identical
// for any worker count. With a persistent cache each task is served from,
// or stored under, o.CacheKey(Key..., seed), so raising Reps against a
// warm cache computes only the new repetitions.
//
// A cell keyed outside the running experiment's CacheID fails before it
// runs. If a task fails, outstanding tasks are cancelled and the error
// names the cell; when several fail, the lowest (cell, rep) wins.
func Run[R any](o Options, cells []Cell[R]) ([][]R, error) {
	root := sim.NewRNG(o.Seed)
	seeds := make([]uint64, o.Reps)
	for i := range seeds {
		seeds[i] = root.Split(uint64(i)).Uint64()
	}
	runs := make([][]R, len(cells))
	for i := range runs {
		runs[i] = make([]R, o.Reps)
	}
	store := o.CacheStore()
	err := forEach(len(cells)*o.Reps, o.Workers, func(task int) error {
		ci, rep := task/o.Reps, task%o.Reps
		c := &cells[ci]
		// The full slice expression makes append copy: repetitions of one
		// cell must not share a backing array for their seed slot.
		key, err := o.CacheKey(append(c.Key[:len(c.Key):len(c.Key)], seeds[rep])...)
		if err != nil {
			return err
		}
		var cached R
		if store.Get(key, &cached) {
			runs[ci][rep] = cached
			return nil
		}
		r, err := c.Run(seeds[rep])
		if err != nil {
			return fmt.Errorf("%v repetition %d: %w", c.Key, rep, err)
		}
		// Best-effort: a full disk or unwritable store must not fail the
		// experiment, only future warm starts.
		_ = store.Put(key, r)
		runs[ci][rep] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// Metric extracts one scalar from a repetition's bracketed measurement.
type Metric = func(testbed.RunResult) float64

// Shared metric extractors.

// SenderJoules is the total energy across all sender hosts.
func SenderJoules(r testbed.RunResult) float64 { return r.TotalSenderJ }

// RunSeconds is the experiment's wall-clock (simulated) duration.
func RunSeconds(r testbed.RunResult) float64 { return r.Duration.Seconds() }

// EventsFired is the discrete-event count of the run.
func EventsFired(r testbed.RunResult) float64 { return float64(r.EventsFired) }

// FirstSenderWatts is host 0's average power over the run.
func FirstSenderWatts(r testbed.RunResult) float64 {
	return r.SenderEnergyJ[0] / r.Duration.Seconds()
}

// Agg summarizes one metric over a cell's repetitions.
type Agg struct{ Mean, Std float64 }

// Aggregate summarizes each metric over one cell's repetitions in run
// order.
func Aggregate(runs []testbed.RunResult, metrics ...Metric) []Agg {
	out := make([]Agg, len(metrics))
	vals := make([]float64, len(runs))
	for i, m := range metrics {
		for j, r := range runs {
			vals[j] = m(r)
		}
		out[i].Mean, out[i].Std = stats.MeanStd(vals)
	}
	return out
}

// forEach runs fn(0) … fn(n-1) across a pool of `workers` goroutines and
// waits for completion. Indices are claimed in order but may complete out of
// order; fn must write its result into a caller-owned slot keyed by index so
// assembled output does not depend on scheduling. The first error stops the
// pool from claiming further indices (work already started still finishes)
// and is returned; when several indices fail, the lowest one's error wins so
// the error path is as deterministic as the pool allows. workers <= 1 runs
// serially on the calling goroutine with fail-fast semantics.
func forEach(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		mu     sync.Mutex
	)
	errIdx := -1
	var firstErr error
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := fn(i); err != nil {
					failed.Store(true)
					mu.Lock()
					if errIdx < 0 || i < errIdx {
						errIdx, firstErr = i, err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
