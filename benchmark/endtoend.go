package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"time"
)

const (
	// setupProbes is how many children per run stop at the ready line, so
	// setup_s comes from many set-ups even when only a few measured children
	// fit in the run.
	setupProbes = 41
	// minChildren keeps the summaries meaningful when --seconds is shorter
	// than a few children.
	minChildren = 3
)

// tally counts the child processes a run started and how many failed.
type tally struct{ attempted, failed int }

// note records one child's outcome, logging a failure, and reports success.
func (t *tally) note(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return false
	}
	return true
}

// checkDigests validates one child's table digests: against the pinned
// seed-1 goldens, and against want (the digests this run saw first, or the
// cold tables a replay must reproduce) when want is non-nil.
func checkDigests(w workload, seed uint64, got, want []string) error {
	if len(got) != len(w.Exps) {
		return fmt.Errorf("%s: %d table digests for %d experiments", w.Name, len(got), len(w.Exps))
	}
	for i, x := range w.Exps {
		if seed == 1 && x.Golden != "" && got[i] != x.Golden {
			return fmt.Errorf("%s: %s tables differ from the seed-1 golden (got %s)", w.Name, x.Name, got[i])
		}
		if want != nil && got[i] != want[i] {
			return fmt.Errorf("%s: %s tables differ between children of one run (%s vs %s)", w.Name, x.Name, got[i], want[i])
		}
	}
	return nil
}

// newDirs makes n fresh cache directories under work.
func newDirs(work string, n int) ([]string, error) {
	dirs := make([]string, n)
	for i := range dirs {
		d, err := os.MkdirTemp(work, "cache-")
		if err != nil {
			return nil, err
		}
		dirs[i] = d
	}
	return dirs, nil
}

func removeAll(dirs []string) {
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// children runs w's measured children one at a time until at least atLeast
// have run and the deadline has passed, and returns the successful ones.
// Cold workloads give every child fresh cache directories, like a user's
// first run; replay first fills one set with a cold child and then reads it
// back in every measured child.
func children(ctx context.Context, env runEnv, w workload, seed uint64, atLeast int, deadline time.Time, t *tally) ([]sample, error) {
	var want, warm []string
	if w.Replay {
		var err error
		if warm, err = newDirs(env.work, len(w.Exps)); err != nil {
			return nil, err
		}
		defer removeAll(warm)
		s, err := spawn(ctx, env.exe, childSpec{Workload: w.Name, Seed: seed, CacheDirs: warm})
		if err == nil {
			err = checkDigests(w, seed, s.report.Digests, nil)
		}
		if t.note(err) {
			want = s.report.Digests
		}
	}
	var out []sample
	for n := 0; n < atLeast || time.Now().Before(deadline); n++ {
		dirs := warm
		if !w.Replay {
			var err error
			if dirs, err = newDirs(env.work, len(w.Exps)); err != nil {
				return nil, err
			}
		}
		s, err := spawn(ctx, env.exe, childSpec{Workload: w.Name, Seed: seed, CacheDirs: dirs})
		if !w.Replay {
			removeAll(dirs)
		}
		if err == nil {
			err = checkDigests(w, seed, s.report.Digests, want)
		}
		if err == nil && w.Replay && (s.report.Misses > 0 || s.report.Hits == 0) {
			err = fmt.Errorf("replay: %d cache misses, %d hits", s.report.Misses, s.report.Hits)
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("run exceeded %v", runLimit)
		}
		if t.note(err) {
			if want == nil {
				want = s.report.Digests
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// runEndToEnd measures workload w: setupProbes set-up probes, then its
// children until seconds have passed (and at least minChildren ran). Each
// metric summarizes the successful children: host times by the fastest
// child, counts by the median.
func runEndToEnd(ctx context.Context, env runEnv, w workload, seed uint64, seconds float64) (runResult, error) {
	var t tally
	var ready, wall, cpu, mallocs, allocMB []float64
	for i := 0; i < setupProbes; i++ {
		s, err := spawn(ctx, env.exe, childSpec{Workload: w.Name, Seed: seed, Probe: true})
		if t.note(err) {
			ready = append(ready, s.readyS)
		}
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	ss, err := children(ctx, env, w, seed, minChildren, deadline, &t)
	if err != nil {
		return runResult{}, err
	}
	if len(ss) == 0 {
		return runResult{}, errors.New("no child completed")
	}
	for _, s := range ss {
		ready = append(ready, s.readyS)
		wall = append(wall, s.wallS)
		cpu = append(cpu, s.cpuS)
		mallocs = append(mallocs, float64(s.report.Mallocs))
		allocMB = append(allocMB, float64(s.report.AllocBytes)/1e6)
	}

	samples := map[string][]float64{
		"wall_s": wall, "cpu_s": cpu, "setup_s": ready, "mallocs": mallocs, "alloc_mb": allocMB,
	}
	res := runResult{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range endToEnd {
		xs := samples[m.Name]
		q1, q2, q3 := quartiles(xs)
		v := q2
		if fastest[m.Name] {
			v = slices.Min(xs)
		}
		fmt.Fprintf(os.Stderr, "%-8s %-9s %-12.6g min %-12.6g p25 %-12.6g median %-12.6g p75 %-12.6g n=%d %s\n",
			w.Name, m.Name, v, slices.Min(xs), q1, q2, q3, len(xs), m.Unit)
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res, nil
}

// fastest marks the host-time metrics, which a run reports as its fastest
// child rather than its median one. Every child of a run does the same
// deterministic work, so anything above the fastest is the host's own
// slowdown; on the shared 2-CPU container the bounds were set on, that
// slowdown comes and goes within seconds by up to 30%, and run minima spread
// about half as much as run medians across runs.
var fastest = map[string]bool{"wall_s": true, "cpu_s": true, "setup_s": true}
