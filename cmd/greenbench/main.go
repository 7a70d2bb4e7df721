// Command greenbench regenerates the paper's figures on the simulated
// testbed and prints the same rows/series the paper reports. Every
// experiment comes from the greenenvy experiment registry: the command has
// no per-figure code, so a newly registered experiment appears in -fig
// list, -fig all, and -svg output with no changes here.
//
// Usage:
//
//	greenbench -fig list         # enumerate the registered experiments
//	greenbench -fig 1            # Figure 1: unfairness sweep (alias of fig1)
//	greenbench -fig fig5 -scale 0.1 # Figure 5 at 5 GB per run
//	greenbench -fig all -reps 10 -scale 1   # full paper parameters
//	greenbench -fig theorem      # Theorem 1 verification
//	greenbench -fig scheduler    # §5 SRPT-vs-fair scheduler comparison
//	greenbench -fig 5 -cpuprofile cpu.pprof -memprofile mem.pprof
//	                             # profile a run; inspect with `go tool pprof`
//	greenbench -scenario examples/scenarios/unequal-rtt.json
//	                             # compile and run a declarative spec file
//
// Results are memoized per (experiment cell, repetition) in a persistent
// content-addressed cache (default: the per-user cache directory), so
// regenerating a figure after a plotting change replays from disk instead
// of simulating. `-no-cache` bypasses it, `-cache-clear` empties it first,
// and a `cache: hits=… misses=…` summary is printed to stderr after runs
// that touch simulation.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"greenenvy"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "experiment to run: a registry name or alias (see -fig list), or all")
		reps       = flag.Int("reps", 3, "repetitions per scenario (paper: 10)")
		scale      = flag.Float64("scale", 0.04, "fraction of the paper's transfer sizes (paper: 1.0)")
		seed       = flag.Uint64("seed", 1, "random seed")
		workers    = flag.Int("workers", 0, "concurrent simulator runs per experiment (0 = all CPUs, 1 = serial; results are identical either way)")
		quiet      = flag.Bool("q", false, "suppress progress lines")
		cacheDir   = flag.String("cache-dir", greenenvy.DefaultCacheDir(), "persistent result cache directory (empty disables persistence)")
		noCache    = flag.Bool("no-cache", false, "bypass the persistent result cache (force full recomputation)")
		cacheClear = flag.Bool("cache-clear", false, "empty the cache directory before running")
		scenario   = flag.String("scenario", "", "compile and register a scenario spec file (.json); runs it unless -fig is also given")
		svgDir     = flag.String("svg", "", "also write figure SVGs into this directory")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (view with `go tool pprof`)")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	// A loaded spec file becomes the selected experiment unless -fig was
	// given explicitly (then it merely joins the registry, e.g. for
	// `-scenario f.json -fig list` or `-fig all`).
	if *scenario != "" {
		name, err := greenenvy.RegisterScenarioFile(*scenario)
		if err != nil {
			fmt.Fprintln(os.Stderr, "greenbench:", err)
			os.Exit(1)
		}
		figSet := false
		flag.Visit(func(f *flag.Flag) { figSet = figSet || f.Name == "fig" })
		if !figSet {
			*fig = name
		}
	}

	if *fig == "list" {
		printList(os.Stdout)
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "greenbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "greenbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *cacheClear && *cacheDir != "" {
		if err := greenenvy.ClearCache(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "greenbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "cleared cache %s\n", *cacheDir)
	}

	o := greenenvy.Options{
		Reps: *reps, Scale: *scale, Seed: *seed, Workers: *workers,
		CacheDir: *cacheDir, Verbose: !*quiet,
	}
	if *noCache {
		o.CacheDir = ""
	}
	err := run(*fig, o, *svgDir)
	printCacheStats(o.CacheDir)

	if *memprofile != "" {
		f, merr := os.Create(*memprofile)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "greenbench:", merr)
			os.Exit(1)
		}
		runtime.GC() // surface live objects, not transient garbage
		if merr := pprof.WriteHeapProfile(f); merr != nil {
			fmt.Fprintln(os.Stderr, "greenbench:", merr)
			os.Exit(1)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "wrote %s\n", *memprofile)
	}

	if err != nil {
		fmt.Fprintln(os.Stderr, "greenbench:", err)
		// os.Exit would skip the deferred StopCPUProfile; the profile is
		// already flushed for the success path, so just exit nonzero here.
		if *cpuprofile != "" {
			pprof.StopCPUProfile()
		}
		os.Exit(1)
	}
}

// printList enumerates the experiment registry, one experiment per line
// beginning with its name.
func printList(w io.Writer) {
	fmt.Fprintf(w, "%-12s %-8s %-8s %s\n", "NAME", "ALIASES", "SECTION", "DESCRIPTION")
	for _, e := range greenenvy.Experiments() {
		fmt.Fprintf(w, "%-12s %-8s %-8s %s\n", e.Name, strings.Join(e.Aliases, ","), e.Section, e.Description)
	}
}

// printCacheStats reports the persistent cache's accounting for this
// invocation on stderr: how many per-repetition results were replayed from
// disk versus simulated. Silent when the cache is disabled or untouched
// (analytic-only figures never consult it).
func printCacheStats(dir string) {
	if dir == "" {
		return
	}
	st := greenenvy.CacheStatsFor(dir)
	total := st.Hits + st.Misses
	if total == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "cache: hits=%d misses=%d (%.0f%% hits), %.1f KiB read, %.1f KiB written (%s)\n",
		st.Hits, st.Misses, float64(st.Hits)/float64(total)*100,
		float64(st.BytesRead)/1024, float64(st.BytesWritten)/1024, dir)
}

// writeSVG renders a result into dir, if set.
func writeSVG(dir, name string, r greenenvy.Result) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	svg, err := r.SVG()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, name+".svg")
	if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// run resolves the -fig argument through the registry and executes the
// selected experiments: print the table, optionally write the SVG.
func run(fig string, o greenenvy.Options, svgDir string) error {
	var selected []greenenvy.Experiment
	if fig == "all" {
		selected = greenenvy.Experiments()
	} else if e, ok := greenenvy.LookupExperiment(fig); ok {
		selected = []greenenvy.Experiment{e}
	} else {
		return fmt.Errorf("unknown experiment %q (names: %s; `greenbench -fig list` shows aliases and descriptions)",
			fig, strings.Join(greenenvy.ExperimentNames(), ", "))
	}

	for _, e := range selected {
		res, err := e.Run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Println(res.Table())
		if err := writeSVG(svgDir, e.Name, res); err != nil {
			return fmt.Errorf("%s svg: %w", e.Name, err)
		}
	}
	return nil
}
