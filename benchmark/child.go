package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"

	"greenenvy"
)

// The parent measures each workload in fresh child processes: RunCCASweep
// memoizes per process, and a user's regeneration is a process start. The
// child is this same binary with childEnv set to a JSON childSpec. It
// reports over file descriptor 3: first a "ready" line just before its
// first experiment Run (so exec → ready is the set-up time a user pays for
// runtime and package init plus option validation), then one JSON
// childReport line. Its tables go to stdout, which the parent discards.
const childEnv = "GREENENVY_BENCH_CHILD"

// runLimit bounds a whole run, children included, well inside the 180 s a
// run may take: a child takes about a second, so only a hang comes near it.
const runLimit = 150 * time.Second

// childSpec tells a child what to run.
type childSpec struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// CacheDirs parallels the workload's Exps: the persistent cache each
	// experiment reads and writes.
	CacheDirs []string `json:"cache_dirs,omitempty"`
	// Probe children stop at the ready line: they measure set-up alone.
	Probe bool `json:"probe,omitempty"`
}

// childReport is what a child measured about itself.
type childReport struct {
	// Digests are the sha256 of each experiment's rendered table.
	Digests []string `json:"digests"`
	// Mallocs and AllocBytes are runtime.MemStats deltas around the Run
	// calls.
	Mallocs    uint64 `json:"mallocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	// Hits and Misses are persistent-cache lookups summed over CacheDirs.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// childMain is the child side of the protocol.
func childMain(spec childSpec) error {
	out := os.NewFile(3, "report")
	defer out.Close()
	w, ok := lookupWorkload(spec.Workload)
	if !ok {
		return fmt.Errorf("child: unknown workload %q", spec.Workload)
	}
	if len(spec.CacheDirs) != 0 && len(spec.CacheDirs) != len(w.Exps) {
		return fmt.Errorf("child: %d cache dirs for %d experiments", len(spec.CacheDirs), len(w.Exps))
	}
	exps := make([]greenenvy.Experiment, len(w.Exps))
	opts := make([]greenenvy.Options, len(w.Exps))
	for i, x := range w.Exps {
		e, ok := greenenvy.LookupExperiment(x.Name)
		if !ok {
			return fmt.Errorf("child: unknown experiment %q", x.Name)
		}
		o := x.Opts
		o.Seed = spec.Seed
		if len(spec.CacheDirs) > 0 {
			o.CacheDir = spec.CacheDirs[i]
		}
		if _, err := o.WithDefaults(); err != nil {
			return fmt.Errorf("child: %s: %w", x.Name, err)
		}
		exps[i], opts[i] = e, o
	}
	if _, err := fmt.Fprintln(out, "ready"); err != nil {
		return fmt.Errorf("child: %w", err)
	}
	if spec.Probe {
		return nil
	}

	var rep childReport
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, e := range exps {
		res, err := e.Run(opts[i])
		if err != nil {
			return fmt.Errorf("child: %s: %w", e.Name, err)
		}
		table := res.Table()
		fmt.Println(table)
		sum := sha256.Sum256([]byte(table))
		rep.Digests = append(rep.Digests, hex.EncodeToString(sum[:]))
	}
	runtime.ReadMemStats(&after)
	rep.Mallocs = after.Mallocs - before.Mallocs
	rep.AllocBytes = after.TotalAlloc - before.TotalAlloc
	for _, dir := range spec.CacheDirs {
		st := greenenvy.CacheStatsFor(dir)
		rep.Hits += st.Hits
		rep.Misses += st.Misses
	}
	if err := json.NewEncoder(out).Encode(rep); err != nil {
		return fmt.Errorf("child: %w", err)
	}
	return nil
}

// sample is the parent's view of one child process.
type sample struct {
	report childReport
	// readyS is exec → ready line, wallS exec → exit, cpuS user+sys.
	readyS, wallS, cpuS float64
	// rssMB is the child's peak resident set.
	rssMB float64
}

// spawn runs one child to completion and returns what it measured. An error
// means the child failed: it exited nonzero, never reached the ready line,
// or sent no report. The child is killed if ctx ends first.
func spawn(ctx context.Context, exe string, spec childSpec) (sample, error) {
	enc, err := json.Marshal(spec)
	if err != nil {
		return sample{}, err
	}
	r, w, err := os.Pipe()
	if err != nil {
		return sample{}, err
	}
	defer r.Close()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(enc), "GOMAXPROCS=2")
	cmd.ExtraFiles = []*os.File{w}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr

	start := time.Now()
	if err := cmd.Start(); err != nil {
		w.Close()
		return sample{}, fmt.Errorf("start child: %w", err)
	}
	w.Close() // the child holds the only write end now, so EOF means exit
	var s sample
	br := bufio.NewReader(r)
	line, readErr := br.ReadString('\n')
	if line == "ready\n" {
		s.readyS = time.Since(start).Seconds()
	}
	rest, _ := io.ReadAll(br)
	waitErr := cmd.Wait()
	s.wallS = time.Since(start).Seconds()
	if st := cmd.ProcessState; st != nil {
		s.cpuS = (st.UserTime() + st.SystemTime()).Seconds()
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			s.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if waitErr != nil {
		return s, fmt.Errorf("%s child: %v: %s", spec.Workload, waitErr, strings.TrimSpace(stderr.String()))
	}
	if line != "ready\n" {
		return s, fmt.Errorf("%s child: no ready line (%q, %v)", spec.Workload, line, readErr)
	}
	if spec.Probe {
		return s, nil
	}
	if err := json.Unmarshal(rest, &s.report); err != nil {
		return s, fmt.Errorf("%s child: bad report %q: %w", spec.Workload, rest, err)
	}
	return s, nil
}
