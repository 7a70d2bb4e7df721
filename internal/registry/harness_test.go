package registry

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"greenenvy/internal/cache"
	"greenenvy/internal/iperf"
	"greenenvy/internal/sim"
	"greenenvy/internal/testbed"
)

// seedCells returns n cells whose repetitions report the seed they ran at.
func seedCells(n int) []Cell[uint64] {
	cells := make([]Cell[uint64], n)
	for i := range cells {
		cells[i] = Cell[uint64]{
			Key: []any{"test", fmt.Sprintf("cell-%d", i)},
			Run: func(seed uint64) (uint64, error) { return seed, nil },
		}
	}
	return cells
}

func TestRunMatchesSerial(t *testing.T) {
	var cells []Cell[testbed.RunResult]
	for i, ccaName := range []string{"cubic", "reno", "bbr"} {
		bytes := uint64(20_000_000 + 5_000_000*i)
		cells = append(cells, TestbedCell(fmt.Sprintf("test/%s", ccaName), 10*sim.Second, func(seed uint64) (*testbed.Testbed, error) {
			tb := testbed.New(testbed.Options{Seed: seed})
			_, err := tb.AddFlow(0, iperf.Spec{Bytes: bytes, CCA: ccaName})
			return tb, err
		}))
	}
	serial, err := Run(Options{Reps: 2, Seed: 42, Workers: 1}, cells)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(Options{Reps: 2, Seed: 42, Workers: 8}, cells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel results differ from serial:\n%+v\nvs\n%+v", parallel, serial)
	}
	if len(serial) != 3 || len(serial[0]) != 2 || serial[0][0].TotalSenderJ == serial[0][1].TotalSenderJ {
		t.Fatalf("want 3 cells × 2 distinct repetitions, got %+v", serial)
	}
}

func TestRunSeedsIndependentOfWorkers(t *testing.T) {
	record := func(workers int) [][]uint64 {
		runs, err := Run(Options{Reps: 6, Seed: 1, Workers: workers}, seedCells(3))
		if err != nil {
			t.Fatal(err)
		}
		return runs
	}
	s1, s4 := record(1), record(4)
	if !reflect.DeepEqual(s1, s4) {
		t.Fatalf("per-rep seeds depend on worker count: %v vs %v", s1, s4)
	}
	for c := range s1 {
		if !reflect.DeepEqual(s1[c], s1[0]) {
			t.Fatalf("cell %d ran at seeds %v, cell 0 at %v: repetition seeds must not depend on the cell", c, s1[c], s1[0])
		}
	}
	// Repetition 0 of Seed 1: cached repetitions and pinned cache ids
	// depend on this value never moving.
	if got, want := s1[0][0], uint64(0x419883d02a1c20a1); got != want {
		t.Fatalf("rep-0 seed of Seed 1 = %#x, want %#x", got, want)
	}
}

func TestRunErrorPropagation(t *testing.T) {
	t.Run("lowest failing task wins", func(t *testing.T) {
		lowErr, highErr := errors.New("low"), errors.New("high")
		lowStarted := make(chan struct{})
		cells := seedCells(3)
		// Tasks run cell-major: (1, 1) is task 3, (2, 0) task 4. The
		// higher task fails first, but only once the lower one has been
		// claimed, so both fail at every worker count.
		cells[1].Run = func(seed uint64) (uint64, error) {
			if seed == sim.NewRNG(1).Split(1).Uint64() {
				close(lowStarted)
				time.Sleep(10 * time.Millisecond)
				return 0, lowErr
			}
			return seed, nil
		}
		cells[2].Run = func(seed uint64) (uint64, error) {
			if seed == sim.NewRNG(1).Split(0).Uint64() {
				<-lowStarted
				return 0, highErr
			}
			return seed, nil
		}
		for _, workers := range []int{1, 8} {
			lowStarted = make(chan struct{})
			_, err := Run(Options{Reps: 2, Seed: 1, Workers: workers}, cells)
			if !errors.Is(err, lowErr) {
				t.Fatalf("workers=%d: err = %v, want the lowest failing task's error", workers, err)
			}
			if msg := err.Error(); !strings.Contains(msg, "cell-1") || !strings.Contains(msg, "repetition 1") {
				t.Fatalf("workers=%d: err %q does not name the failing cell and repetition", workers, msg)
			}
		}
	})
	t.Run("failure cancels outstanding tasks", func(t *testing.T) {
		boom := errors.New("boom")
		var calls atomic.Int32
		cells := seedCells(4)
		for i := range cells {
			cells[i].Run = func(seed uint64) (uint64, error) {
				calls.Add(1)
				if i == 0 && seed == sim.NewRNG(1).Split(0).Uint64() {
					return 0, boom
				}
				// Keep the other workers busy long enough for the
				// failure to be observed before the pool drains.
				time.Sleep(2 * time.Millisecond)
				return seed, nil
			}
		}
		_, err := Run(Options{Reps: 16, Seed: 1, Workers: 4}, cells)
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), "repetition 0") {
			t.Fatalf("err = %v, want wrapped boom naming repetition 0", err)
		}
		if n := calls.Load(); n >= 64 {
			t.Fatalf("all %d tasks ran; failure did not cancel outstanding work", n)
		}
	})
}

func TestRunWarmCacheHasNoMisses(t *testing.T) {
	dir := t.TempDir()
	o := Options{Reps: 3, Seed: 1, Workers: 2, CacheDir: dir}
	var calls atomic.Int32
	cells := seedCells(3)
	for i := range cells {
		cells[i].Run = func(seed uint64) (uint64, error) {
			calls.Add(1)
			return seed ^ uint64(i), nil
		}
	}
	cold, err := Run(o, cells)
	if err != nil {
		t.Fatal(err)
	}
	if st := CacheStatsFor(dir); st.Misses != 9 || st.Puts != 9 {
		t.Fatalf("cold run: %+v, want 9 misses and 9 puts", st)
	}
	warm, err := Run(o, cells)
	if err != nil {
		t.Fatal(err)
	}
	if st := CacheStatsFor(dir); st.Misses != 9 || st.Hits != 9 {
		t.Fatalf("warm run added misses: %+v, want 9 hits and no new misses", st)
	}
	if n := calls.Load(); n != 9 {
		t.Fatalf("cells ran %d times over a cold and a warm run, want 9", n)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm replay %v differs from cold run %v", warm, cold)
	}
}

// TestRunKeyWithSpareCapacity: Run appends the seed to each cell's Key.
// When that slice has spare capacity, repetitions must still build their
// keys in private storage — under -race a shared backing array is a data
// race, and without it a repetition can be cached under another's seed.
func TestRunKeyWithSpareCapacity(t *testing.T) {
	dir := t.TempDir()
	o := Options{Reps: 6, Seed: 1, Workers: 4, CacheDir: dir}
	key := make([]any, 0, 8)
	key = append(key, "spare", "cell")
	cells := []Cell[uint64]{{Key: key, Run: func(seed uint64) (uint64, error) { return seed, nil }}}
	runs, err := Run(o, cells)
	if err != nil {
		t.Fatal(err)
	}
	store := o.CacheStore()
	for rep, seed := range runs[0] {
		var got uint64
		if !store.Get(cache.NewKey("spare", "cell", seed), &got) || got != seed {
			t.Fatalf("repetition %d: not cached under its own seed %#x (got %#x)", rep, seed, got)
		}
	}
}

func TestForEachCoversAllIndicesOnce(t *testing.T) {
	const n = 100
	var hits [n]atomic.Int32
	if err := forEach(n, 7, func(i int) error {
		hits[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
}
