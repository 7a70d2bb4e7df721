package greenenvy

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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

// tinyTables pins the sha256 of every registered experiment's table at
// digestOpts' tiny scale, one entry per experiment: a change to any
// printed digit, title or footnote fails TestEveryExperimentRunsAtTinyScale.
// A deliberate table change updates its entry in the same commit and says
// why in CHANGES.md.
var tinyTables = map[string]string{
	"fig1":               "0d9bde9d0d517018d49b23bdb159c739747c15955e0939fcf6d2c9fd5aae86ef",
	"fig2":               "bf35870fa462efb4ddbf3664306dae396811fa08984f71c7dc14092b0fb05ce2",
	"fig3":               "6782d8c3d9d3c5abf68e9699bd3d764449bf9d71ab8d21c320ba914cd55bf8b4",
	"fig4":               "9d2caf3036e711f1eabbac44d7a9301198065fa8ab5cc840b1ae21923eb75f15",
	"fig5":               "387927499f531a17b764225c24c53de47d65d6cb5bd1cea66f39f2a0e52a5a1d",
	"fig6":               "0493927cc75a93f3f072f7bfd3a6f9a3cc23f014d5657be22fcd59e37a8d2fbe",
	"fig7":               "d6b488d913bea89de772298af69d9c016c01d5ca9f58a2fb99978bfd39744d04",
	"fig8":               "2f5e54b635745780013592b3c3aae09a30448d482e639e94625adba4d3aeb03c",
	"theorem":            "cbf29638192347e166be286324dfa5c711ea2a642eec76e3093ab468910ffe80",
	"scheduler":          "cf043cf2bc4cfe3c07c76af1d72c24ea3de45d60a291320e6f1822b55a67196c",
	"incast":             "94e2407814f8bca4825db085dcdc4849787f34cd96ee122a9ccd5b6c14de4d82",
	"fattree-incast":     "b28cdf8cc16a3bd12879732ecb872e117a7b876cd8d217fe35126e4377064d90",
	"crossrack":          "5572494a79014e65523a32796858d87403655ccb05acd4c5fc743d39ed6f1c17",
	"aqm-matrix":         "b110727ad68b34c5b6c4db03eea22371f2786742f0563e42c168e941424fed54",
	"samesender":         "da39b364365b5a00d6cb3ff5dada2983b73cd8f1b8b252d5644b88da47413e6a",
	"ablations":          "60c8854a443a909bf433f880fa2c15a435c9bab6e3d4b7c3c574d751bb7f90d5",
	"frontier":           "3947a5ab1e5cf985e5eec886aa126aad2045550b86bc5c23ef21678c61709bcb",
	"production":         "c9575235dbf38dc92460610fc092fff0fed8624dd518d8945f666ac98ad8cc4c",
	"workload":           "1892a6a5c5c2935adc895cb215669fc6ea89ff691078f3e88a8238d560d306a7",
	"workload-scale":     "8e2a46fb841c8f47af9fab6c695a0cf1f15f6c6d8b1325e3f31cc1c1f1f6a645",
	"workload-crossover": "e54d8f9eeb40691a7132e71b3182f69cee17823712d1f1f59b4b99895d10e873",
}

// TestEveryExperimentRunsAtTinyScale drives each registered experiment
// through its registry Run at digestOpts' tiny scale and checks the uniform
// Result contract: a non-empty table whose digest tinyTables pins and a
// well-formed SVG document. The
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
			sum := sha256.Sum256([]byte(tbl))
			if got, want := hex.EncodeToString(sum[:]), tinyTables[e.Name]; got != want {
				t.Errorf("table digest %s, want %q:\n%s", got, want, tbl)
			}
			cold[e.Name] = tbl
		})
	}
	for name := range tinyTables {
		if _, ok := LookupExperiment(name); !ok {
			t.Errorf("tinyTables pins %q, which is not a registered experiment", name)
		}
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
