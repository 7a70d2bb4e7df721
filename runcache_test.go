package greenenvy

import (
	"testing"
	"time"

	"greenenvy/internal/cca"
	"greenenvy/internal/registry"
)

func TestCacheStoreResolution(t *testing.T) {
	if (Options{CacheDir: ""}).CacheStore() != nil {
		t.Fatal("empty CacheDir opened a store")
	}
	dir := t.TempDir()
	s := Options{CacheDir: dir}.CacheStore()
	if s == nil {
		t.Fatal("valid CacheDir did not open a store")
	}
	if s2 := (Options{CacheDir: dir}).CacheStore(); s2 != s {
		t.Fatal("same dir resolved to a second store; stats would fragment")
	}
	if CacheStatsFor(dir) != (CacheStats{}) {
		t.Fatal("fresh store has nonzero stats")
	}
	if CacheStatsFor("/never/opened") != (CacheStats{}) {
		t.Fatal("unopened dir reported stats")
	}
}

func TestDefaultCacheDir(t *testing.T) {
	if DefaultCacheDir() == "" {
		t.Skip("platform has no user cache dir")
	}
}

// TestPersistentCacheColdWarmPartial is the tentpole's acceptance test:
//
//  1. a cold sweep populates the cache (one entry per cell × repetition),
//  2. a warm sweep in a "fresh process" (in-memory cache reset) replays
//     every repetition from disk, ≥10× faster, byte-identical digest,
//  3. a partially warm sweep (Reps raised 1→2 against the same cache)
//     reuses the cached repetitions, computes only the new ones, and its
//     digest matches the all-cold golden digest exactly.
func TestPersistentCacheColdWarmPartial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full (reduced-scale) sweeps")
	}
	dir := t.TempDir()
	cells := uint64(len(cca.PaperOrder()) * len(SweepMTUs))

	// digestOpts is Reps 2 / Scale 0.001 / Seed 1 — the configuration the
	// golden digest pins — so the partial-warm phase can be checked
	// against registry.Fig5GoldenDigest with no extra cold reference run.
	o1 := digestOpts()
	o1.Reps = 1
	o1.CacheDir = dir

	resetSweepCache()
	start := time.Now()
	cold, err := RunCCASweep(o1)
	if err != nil {
		t.Fatal(err)
	}
	coldDur := time.Since(start)
	st := CacheStatsFor(dir)
	if st.Hits != 0 || st.Misses != cells || st.Puts != cells {
		t.Fatalf("cold run stats %+v, want 0 hits / %d misses / %d puts", st, cells, cells)
	}

	resetSweepCache() // simulate a fresh process: only the disk cache survives
	start = time.Now()
	warm, err := RunCCASweep(o1)
	if err != nil {
		t.Fatal(err)
	}
	warmDur := time.Since(start)
	st2 := CacheStatsFor(dir)
	if st2.Hits-st.Hits != cells || st2.Misses != st.Misses {
		t.Fatalf("warm run stats %+v (cold %+v), want +%d hits / +0 misses", st2, st, cells)
	}
	if got, want := sweepDigest(warm), sweepDigest(cold); got != want {
		t.Fatalf("warm digest %s != cold digest %s: disk replay is not byte-identical", got, want)
	}
	if warmDur*10 > coldDur {
		t.Fatalf("warm run not ≥10× faster: cold %v, warm %v", coldDur, warmDur)
	}
	t.Logf("cold %v, warm %v (%.0f× speedup)", coldDur, warmDur, float64(coldDur)/float64(warmDur))

	// Partial warm: Reps 1→2. Repetition seeds depend only on (Seed, rep
	// index), so the Reps-1 entries are reused verbatim and only the
	// second repetition of each cell is simulated.
	resetSweepCache()
	o2 := digestOpts()
	o2.CacheDir = dir
	part, err := RunCCASweep(o2)
	if err != nil {
		t.Fatal(err)
	}
	st3 := CacheStatsFor(dir)
	if st3.Hits-st2.Hits != cells || st3.Misses-st2.Misses != cells {
		t.Fatalf("partial run stats %+v (warm %+v), want +%d hits / +%d misses", st3, st2, cells, cells)
	}
	if got := sweepDigest(part); got != registry.Fig5GoldenDigest {
		t.Fatalf("partially warm digest %s != all-cold golden digest %s:\n"+
			"mixing cached and fresh repetitions changed the result", got, registry.Fig5GoldenDigest)
	}
}

// TestNoCacheMatchesCached: an uncached run (empty CacheDir, which is what
// greenbench -no-cache sets) must produce the identical result to a cached
// one — the cache can never change what is computed.
func TestNoCacheMatchesCached(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	dir := t.TempDir()
	base := Options{Reps: 1, Scale: 0.001, Seed: 21, CacheDir: dir}

	resetSweepCache()
	cached, err := RunCCASweep(base)
	if err != nil {
		t.Fatal(err)
	}
	if st := CacheStatsFor(dir); st.Puts == 0 {
		t.Fatalf("cached run stored nothing: %+v", st)
	}
	uncached := base
	uncached.CacheDir = ""
	resetSweepCache()
	fresh, err := RunCCASweep(uncached)
	if err != nil {
		t.Fatal(err)
	}
	if sweepDigest(fresh) != sweepDigest(cached) {
		t.Fatal("uncached recomputation differs from cached result")
	}
}
