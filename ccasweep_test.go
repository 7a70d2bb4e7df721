package greenenvy

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"greenenvy/internal/cca"
)

// resetSweepCache empties the sweep cache so a test can force fresh
// computations for options that would otherwise hit the cache.
func resetSweepCache() {
	sweepMu.Lock()
	sweepCache = map[string]*sweepEntry{}
	sweepMu.Unlock()
}

// syntheticSweep builds a SweepResult with hand-written numbers so table
// rendering and derived statistics can be tested without running the
// simulator.
func syntheticSweep() *SweepResult {
	sw := &SweepResult{Bytes: 1_000_000_000, ScaleToPaper: 50}
	for i, name := range cca.PaperOrder() {
		for j, mtu := range SweepMTUs {
			base := 40.0 + float64(i)*2 // energy J, rising in paper order
			e := base - float64(j)*5    // bigger MTU cheaper
			fct := 1.0 + 0.1*float64(i) - 0.1*float64(j)
			sw.Cells = append(sw.Cells, SweepCell{
				CCA: name, MTU: mtu,
				EnergyJ: []float64{e, e + 0.5},
				FCTSecs: []float64{fct, fct},
				PowerW:  []float64{e / fct, e / fct},
				Retx:    []float64{float64(i * 100), float64(i * 100)},
			})
		}
	}
	return sw
}

func TestSweepCellAccessors(t *testing.T) {
	sw := syntheticSweep()
	c := sw.Cell("cubic", 9000)
	if c == nil {
		t.Fatal("Cell lookup failed")
	}
	if c.CCA != "cubic" || c.MTU != 9000 {
		t.Fatalf("wrong cell %+v", c)
	}
	if sw.Cell("cubic", 1234) != nil {
		t.Fatal("bogus MTU matched")
	}
	if sw.Cell("nope", 9000) != nil {
		t.Fatal("bogus CCA matched")
	}
	if c.MeanEnergyJ() <= 0 || c.MeanFCT() <= 0 || c.MeanPowerW() <= 0 {
		t.Fatal("means not computed")
	}
}

func TestSweepTablesRenderAllCells(t *testing.T) {
	sw := syntheticSweep()
	f5 := Fig5Result{Sweep: sw, BaselinePremiumPct: map[int]float64{1500: 10}, MTUSavingsPct: map[string]float64{}}
	for _, n := range cca.PaperOrder() {
		f5.MTUSavingsPct[n] = 20
	}
	f6 := Fig6Result{Sweep: sw, EnergyPowerCorr: -0.8, SpreadPct: 14}
	f7 := Fig7Result{Sweep: sw, Corr: 0.9}
	f8 := Fig8Result{Sweep: sw, CorrExclBBR2: 0.47, BaselineHasMostRetx: true}
	for _, tbl := range []string{f5.Table(), f6.Table(), f7.Table(), f8.Table()} {
		for _, name := range cca.PaperOrder() {
			if !strings.Contains(tbl, name) {
				t.Fatalf("table missing CCA %q:\n%s", name, tbl)
			}
		}
	}
	if !strings.Contains(f6.Table(), "-0.80") {
		t.Fatal("correlation not rendered")
	}
	if !strings.Contains(f8.Table(), "0.47") {
		t.Fatal("retx correlation not rendered")
	}
}

// TestSweepKeyAuditsOptionsFields is the in-memory sweep cache's key audit:
// every Options field must be explicitly classified as result-affecting
// (it changes the computed SweepResult, so it MUST change sweepKey) or
// exempt (it only changes wall-clock, logging, or persistence, so it must
// NOT change sweepKey — splitting the cache on it would duplicate work).
// A field added to Options without a classification here fails the test,
// so a future result-affecting knob cannot silently poison the cache.
func TestSweepKeyAuditsOptionsFields(t *testing.T) {
	// Mutators produce a value different from base in exactly one field.
	resultAffecting := map[string]func(*Options){
		"Reps":  func(o *Options) { o.Reps++ },
		"Scale": func(o *Options) { o.Scale /= 2 },
		"Seed":  func(o *Options) { o.Seed++ },
	}
	exempt := map[string]func(*Options){
		"Workers":  func(o *Options) { o.Workers++ },
		"Verbose":  func(o *Options) { o.Verbose = !o.Verbose },
		"CacheDir": func(o *Options) { o.CacheDir += "/elsewhere" },
		// The registry's unexported stamp of the running experiment's
		// CacheID. This package can neither set nor read it, so it has no
		// mutator and sweepKey cannot select it.
		"cacheID": nil,
	}

	rt := reflect.TypeOf(Options{})
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		_, ra := resultAffecting[name]
		_, ex := exempt[name]
		if ra == ex {
			t.Fatalf("Options.%s is not classified (or doubly classified) in the sweep key audit: "+
				"decide whether it affects results and add it to exactly one map", name)
		}
	}
	if rt.NumField() != len(resultAffecting)+len(exempt) {
		t.Fatalf("audit lists %d fields, Options has %d", len(resultAffecting)+len(exempt), rt.NumField())
	}

	base := Options{Reps: 2, Scale: 0.01, Seed: 5, Workers: 2, CacheDir: "somewhere"}
	for name, mutate := range resultAffecting {
		o := base
		mutate(&o)
		if sweepKey(o) == sweepKey(base) {
			t.Errorf("result-affecting field %s does not enter the sweep cache key", name)
		}
	}
	for name, mutate := range exempt {
		if mutate == nil {
			continue
		}
		o := base
		mutate(&o)
		if sweepKey(o) != sweepKey(base) {
			t.Errorf("exempt field %s enters the sweep cache key (needless cache splits)", name)
		}
	}
}

// TestSweepParallelMatchesSerial is the determinism regression test for the
// worker-pool executor: the same Options must produce a byte-identical
// SweepResult (same cell order, same float values) at Workers 1 and 8.
func TestSweepParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	base := Options{Reps: 2, Scale: 0.001, Seed: 7}

	serialOpts := base
	serialOpts.Workers = 1
	resetSweepCache()
	serial, err := RunCCASweep(serialOpts)
	if err != nil {
		t.Fatal(err)
	}

	parallelOpts := base
	parallelOpts.Workers = 8
	resetSweepCache() // force a fresh computation: the cache key ignores Workers
	parallel, err := RunCCASweep(parallelOpts)
	if err != nil {
		t.Fatal(err)
	}

	if len(parallel.Cells) != len(serial.Cells) {
		t.Fatalf("cell count %d != %d", len(parallel.Cells), len(serial.Cells))
	}
	for i := range serial.Cells {
		if !reflect.DeepEqual(serial.Cells[i], parallel.Cells[i]) {
			t.Fatalf("cell %d differs between Workers=1 and Workers=8:\n%+v\nvs\n%+v",
				i, serial.Cells[i], parallel.Cells[i])
		}
	}
	if serial.Bytes != parallel.Bytes || serial.ScaleToPaper != parallel.ScaleToPaper {
		t.Fatalf("sweep metadata differs: %+v vs %+v", serial, parallel)
	}
}

// TestConcurrentSweepCallersShareOneRun exercises the singleflight path: all
// concurrent callers with the same key must receive the pointer produced by
// a single shared computation (run under -race in CI).
func TestConcurrentSweepCallersShareOneRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	resetSweepCache()
	o := Options{Reps: 1, Scale: 0.001, Seed: 9, Workers: 2}
	const callers = 4
	results := make([]*SweepResult, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunCCASweep(o)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different result pointer; sweep computed more than once", i)
		}
	}
}

func TestSweepCacheReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	o := Options{Reps: 1, Scale: 0.001, Seed: 3}
	a, err := RunCCASweep(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCCASweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same options did not hit the sweep cache")
	}
	c, err := RunCCASweep(Options{Reps: 1, Scale: 0.001, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different seed reused the cache")
	}
}
