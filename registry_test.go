package greenenvy

import (
	"bytes"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// canonicalOrder is the expected -fig all sequence: the paper's figures in
// number order, then the analytic and extension experiments.
var canonicalOrder = []string{
	"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
	"theorem", "scheduler", "incast", "fattree-incast", "crossrack",
	"aqm-matrix", "samesender", "ablations", "frontier", "production",
	"workload", "workload-scale", "workload-crossover",
}

func TestRegistryMetadata(t *testing.T) {
	exps := Experiments()
	if len(exps) != len(canonicalOrder) {
		t.Fatalf("registry has %d experiments, want %d", len(exps), len(canonicalOrder))
	}
	for i, e := range exps {
		if e.Name != canonicalOrder[i] {
			t.Errorf("Experiments()[%d] = %q, want %q", i, e.Name, canonicalOrder[i])
		}
		if e.Description == "" {
			t.Errorf("%s: empty description", e.Name)
		}
		if e.Section == "" {
			t.Errorf("%s: empty paper section", e.Name)
		}
		if e.Run == nil {
			t.Errorf("%s: nil Run", e.Name)
		}
	}

	seen := map[string]string{}
	for _, e := range exps {
		for _, key := range append([]string{e.Name}, e.Aliases...) {
			if prev, dup := seen[key]; dup {
				t.Errorf("key %q registered by both %s and %s", key, prev, e.Name)
			}
			seen[key] = e.Name
			got, ok := LookupExperiment(key)
			if !ok || got.Name != e.Name {
				t.Errorf("LookupExperiment(%q) = %q, %v; want %q", key, got.Name, ok, e.Name)
			}
		}
	}
	for fig := 1; fig <= 8; fig++ {
		want := canonicalOrder[fig-1]
		if e, ok := LookupExperiment(strings.TrimPrefix(want, "fig")); !ok || e.Name != want {
			t.Errorf("numeric alias for %s does not resolve", want)
		}
	}
	if _, ok := LookupExperiment("no-such-experiment"); ok {
		t.Error("LookupExperiment resolved a name that was never registered")
	}

	names := ExperimentNames()
	for i, want := range canonicalOrder {
		if names[i] != want {
			t.Fatalf("ExperimentNames()[%d] = %q, want %q", i, names[i], want)
		}
	}
}

func TestRegisterRejectsBadExperiments(t *testing.T) {
	expectPanic := func(what string, e Experiment) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Register accepted %s", what)
			}
		}()
		Register(e)
	}
	run := func(Options) (Result, error) { return nil, nil }
	expectPanic("a nameless experiment", Experiment{Run: run})
	expectPanic("a runless experiment", Experiment{Name: "x"})
	expectPanic("a duplicate name", Experiment{Name: "fig1", Run: run})
	expectPanic("an alias shadowing a name", Experiment{Name: "x", Aliases: []string{"5"}, Run: run})
	expectPanic("a CacheID nested in fig1's", Experiment{Name: "x", CacheID: "fig1/x/", Run: run})
}

// TestEveryExperimentRunsAtTinyScale drives each registered experiment
// through its registry Run at digestOpts' tiny scale and checks the uniform
// Result contract: a non-empty table and a well-formed SVG document. The
// cold pass and a warm third pass share one cache directory and each
// starts from an empty in-process sweep cache, like two `greenbench -fig
// all` processes. The cold pass must read no entry, so no experiment hits
// another experiment's keys; a closed-form experiment (no CacheID) must
// not touch the cache at all, and each declared CacheID must be written by
// an experiment declaring it. The exempt pass between them reruns every
// experiment from an empty in-process sweep cache with Verbose on and a
// fresh CacheDir. It must print the cold tables and write the cold cache
// entries byte for byte, so neither option reaches a simulation input,
// even below table precision. Workers keeps its default so the pass runs
// in parallel; worker counts have tests of their own. The warm pass must
// replay every experiment with zero misses and a byte-identical table.
func TestEveryExperimentRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registered experiment")
	}
	o := digestOpts()
	o.CacheDir = t.TempDir()
	cold := map[string]string{}
	puts := map[string]uint64{} // cold-pass entries written per declared CacheID
	resetSweepCache()
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			before := CacheStatsFor(o.CacheDir)
			res, err := e.Run(o)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			after := CacheStatsFor(o.CacheDir)
			if hits := after.Hits - before.Hits; hits != 0 {
				t.Fatalf("cold run read %d cache entries another experiment wrote", hits)
			}
			if e.CacheID == "" {
				if n := after.Misses + after.Puts - before.Misses - before.Puts; n != 0 {
					t.Fatalf("closed-form experiment looked up or wrote %d cache entries: declare its CacheID", n)
				}
			} else {
				puts[e.CacheID] += after.Puts - before.Puts
			}
			tbl := res.Table()
			if strings.TrimSpace(tbl) == "" {
				t.Fatal("empty table")
			}
			svg, err := res.SVG()
			if err != nil {
				t.Fatalf("SVG: %v", err)
			}
			if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
				t.Fatalf("malformed SVG (%d bytes)", len(svg))
			}
			cold[e.Name] = tbl
		})
	}
	for id, n := range puts {
		if n == 0 {
			t.Errorf("no experiment declaring CacheID %q wrote a cache entry", id)
		}
	}

	resetSweepCache()
	t.Run("exempt", func(t *testing.T) {
		x := o
		x.Verbose = true
		x.CacheDir = t.TempDir()
		want := cacheFiles(t, o.CacheDir)
		seen := map[string]bool{}
		for _, e := range Experiments() {
			tbl, ok := cold[e.Name]
			if !ok {
				continue
			}
			t.Run(e.Name, func(t *testing.T) {
				res, err := e.Run(x)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if got := res.Table(); got != tbl {
					t.Errorf("table differs from the cold one:\n got:\n%s\nwant:\n%s", got, tbl)
				}
				for path, b := range cacheFiles(t, x.CacheDir) {
					if seen[path] {
						continue
					}
					seen[path] = true
					if !bytes.Equal(b, want[path]) {
						t.Errorf("cache entry %s is not the cold pass's, byte for byte", path)
					}
				}
			})
		}
		if len(seen) != len(want) {
			t.Errorf("exempt pass wrote %d cache entries, the cold pass %d", len(seen), len(want))
		}
	})

	resetSweepCache() // a fresh process: only the disk cache survives
	t.Run("warm", func(t *testing.T) {
		for _, e := range Experiments() {
			want, ok := cold[e.Name]
			if !ok {
				continue // the cold run failed or was filtered out
			}
			t.Run(e.Name, func(t *testing.T) {
				before := CacheStatsFor(o.CacheDir)
				res, err := e.Run(o)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if misses := CacheStatsFor(o.CacheDir).Misses - before.Misses; misses != 0 {
					t.Fatalf("warm run missed %d cache entries", misses)
				}
				if got := res.Table(); got != want {
					t.Fatalf("warm table differs from the cold one:\n got:\n%s\nwant:\n%s", got, want)
				}
			})
		}
	})
}

// cacheFiles reads every file under a cache directory, keyed by its path
// relative to dir.
func cacheFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		files[rel] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestEveryExperimentRejectsBadScale feeds every experiment options that
// WithDefaults must reject before any simulation starts: bad input is an
// error, never a panic or a misleading run.
func TestEveryExperimentRejectsBadScale(t *testing.T) {
	for _, bad := range []Options{{Scale: 5}, {Scale: math.NaN()}, {Reps: -1}} {
		for _, e := range Experiments() {
			if _, err := e.Run(bad); err == nil {
				t.Errorf("%s: %+v did not return an error", e.Name, bad)
			}
		}
	}
}
