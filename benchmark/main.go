package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if env, ok := os.LookupEnv(childEnv); ok {
		os.Exit(runChild(env))
	}
	os.Exit(run(os.Args[1:]))
}

// runChild runs the child side of the protocol for a JSON childSpec and
// returns the exit code.
func runChild(env string) int {
	var spec childSpec
	err := json.Unmarshal([]byte(env), &spec)
	if err == nil {
		err = childMain(spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// buildDir holds everything a run leaves behind, relative to the directory
// it runs in (the repository root): the binary run.sh builds, per-run
// scratch space, and the span files of traced runs.
const buildDir = ".bench_build"

// runEnv is where a run finds its own binary and keeps its files.
type runEnv struct {
	exe      string // this binary, re-executed for children
	work     string // scratch space, removed when the run ends
	traceDir string // span files of traced runs
}

// setRun is one run of a set: which workload and seed, and its verdict.
type setRun struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Result   runResult `json:"result"`
}

// setFile is the on-disk form of a set of runs, the input of -compare.
type setFile struct {
	Runs []setRun `json:"runs"`
}

// run parses the command line and dispatches; it returns the exit code.
func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	wname := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", ")+" (or all, with -runs)")
	seed := fs.Uint64("seed", 1, "input seed; seed 1 is also checked against the pinned golden tables")
	seconds := fs.Float64("seconds", 20, "how long one run measures")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	runs := fs.Int("runs", 0, "run each workload this many times, seeds seed, seed+1, ..., and summarize the set")
	out := fs.String("o", "", "with -runs: write the set to this JSON file for -compare")
	compare := fs.Bool("compare", false, "compare two sets: -compare base.json head.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two set files, got %d arguments", fs.NArg()))
		}
		return compareSets(fs.Arg(0), fs.Arg(1))
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 {
		return fail(fmt.Errorf("-seconds must be positive, got %v", *seconds))
	}
	names := []string{*wname}
	if *wname == "all" && *runs > 0 {
		names = workloadNames()
	}
	for _, n := range names {
		if _, ok := lookupWorkload(n); !ok {
			return fail(fmt.Errorf("unknown workload %q (have %s)", n, strings.Join(workloadNames(), ", ")))
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	env := runEnv{
		exe:      exe,
		work:     filepath.Join(buildDir, "work", fmt.Sprint(os.Getpid())),
		traceDir: filepath.Join(buildDir, "trace"),
	}
	if err := os.MkdirAll(env.work, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(env.work)

	once := func(name string, seed uint64) (runResult, error) {
		ctx, cancel := context.WithTimeout(context.Background(), runLimit)
		defer cancel()
		w, _ := lookupWorkload(name)
		if *trace == 1 {
			return runTrace(ctx, env, w, seed, *seconds)
		}
		return runEndToEnd(ctx, env, w, seed, *seconds)
	}

	if *runs <= 0 {
		res, err := once(names[0], *seed)
		if err != nil {
			return fail(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
		if res.Failed > 0 {
			return 1
		}
		return 0
	}

	// Workloads interleave within each round so drift in machine load
	// spreads over all of them instead of landing on one.
	var set setFile
	for i := 0; i < *runs; i++ {
		for _, name := range names {
			s := *seed + uint64(i)
			res, err := once(name, s)
			if err != nil {
				return fail(fmt.Errorf("%s seed %d: %w", name, s, err))
			}
			set.Runs = append(set.Runs, setRun{Workload: name, Seed: s, Result: res})
		}
	}
	printSet(os.Stdout, set)
	if *out != "" {
		enc, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	for _, r := range set.Runs {
		if r.Result.Failed > 0 {
			return 1
		}
	}
	return 0
}
