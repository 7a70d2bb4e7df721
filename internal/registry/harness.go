package registry

import (
	"greenenvy/internal/cache"
	"greenenvy/internal/sim"
	"greenenvy/internal/stats"
	"greenenvy/internal/testbed"
)

// This file is the shared run harness behind the registered experiments.
// RepeatRuns owns repetition fan-out, derived seeds, and persistent-cache
// threading; RunCell owns the per-cell metric aggregation that every figure
// used to hand-roll: extract one or more scalars from each repetition's
// RunResult in run order and summarize them with stats.MeanStd. Experiments
// keep only their scenario construction and result interpretation.

// BuildFunc constructs one repetition's testbed from its derived seed. It
// must not capture state shared across repetitions; two call sites with the
// same cell id and seed must build identical testbeds (see RepeatRuns).
type BuildFunc = func(seed uint64) (*testbed.Testbed, error)

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

// RunCell runs one experiment cell — Reps repetitions fanned out over
// Options.Workers with per-repetition persistent caching — and aggregates
// each requested metric over the repetitions in run order.
func RunCell(o Options, id string, build BuildFunc, deadline sim.Duration, metrics ...Metric) ([]Agg, error) {
	runs, err := RepeatRuns(o, id, build, deadline)
	if err != nil {
		return nil, err
	}
	out := make([]Agg, len(metrics))
	for i, m := range metrics {
		vals := make([]float64, len(runs))
		for j, r := range runs {
			vals[j] = m(r)
		}
		out[i].Mean, out[i].Std = stats.MeanStd(vals)
	}
	return out, nil
}

// RepeatRuns centralizes the repetition loop with derived seeds, fanned out
// over Options.Workers goroutines. Each repetition builds and runs its own
// testbed, so build must not capture state shared across repetitions.
//
// id names the experiment cell for the persistent cache and must encode
// every result-affecting parameter that the per-repetition seed does not
// already capture (transfer bytes, rates, loads, topology, CCA, MTU, ...).
// Two call sites with the same id and seed MUST build identical testbeds.
func RepeatRuns(o Options, id string, build func(seed uint64) (*testbed.Testbed, error), deadline sim.Duration) ([]testbed.RunResult, error) {
	return repeatCached(o, "run", id, func(seed uint64) (testbed.RunResult, error) {
		tb, err := build(seed)
		if err != nil {
			return testbed.RunResult{}, err
		}
		return tb.Run(deadline)
	})
}

// RepeatStreamRuns is RepeatRuns for the streaming churn path: the same
// derived-seed repetition fan-out and per-repetition persistent caching,
// but each repetition produces an O(1)-size testbed.StreamResult instead
// of retained per-flow reports. Stream runs cache under the "stream" key
// kind so their gob shape evolves independently of RunResult's.
func RepeatStreamRuns(o Options, id string, run func(seed uint64) (testbed.StreamResult, error)) ([]testbed.StreamResult, error) {
	return repeatCached(o, "stream", id, run)
}

// repeatCached fans Options.Reps repetitions of run out over
// Options.Workers, serving each from the persistent cache under
// (kind, id, seed) when present and storing it there after a fresh run.
func repeatCached[R any](o Options, kind, id string, run func(seed uint64) (R, error)) ([]R, error) {
	store := o.CacheStore()
	return testbed.RepeatParallel(o.Reps, o.Seed, o.Workers, func(_ int, seed uint64) (R, error) {
		key := cache.NewKey(kind, id, seed)
		var cached R
		if store.Get(key, &cached) {
			return cached, nil
		}
		r, err := run(seed)
		if err == nil {
			// Best-effort: a full disk or unwritable store must not
			// fail the experiment, only future warm starts.
			_ = store.Put(key, r)
		}
		return r, err
	})
}
