package registry

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// emptyRegistry gives a test a registry of its own and restores the
// package's on cleanup.
func emptyRegistry(t *testing.T) {
	list, index := experimentList, experimentIndex
	experimentList, experimentIndex = nil, map[string]int{}
	t.Cleanup(func() { experimentList, experimentIndex = list, index })
}

func nopRun(Options) (Result, error) { return nil, nil }

func TestRegisterRejectsOverlappingCacheIDs(t *testing.T) {
	for _, c := range []struct {
		name string
		// ids are registered in order; only the last may be rejected.
		ids    []string
		panics bool
	}{
		{"disjoint", []string{"a/", "b/", "ab/"}, false},
		{"nested", []string{"a/", "a/b/"}, true},
		{"nesting", []string{"a/b/", "a/"}, true},
		{"unterminated prefix", []string{"fig1/", "fig"}, true},
		{"equal", []string{"a/", "a/"}, true},
		{"shared sweep", []string{"sweep", "sweep", "sweep"}, false},
		{"shared scenario", []string{"scenario/", "scenario/"}, false},
		{"nested in a shared namespace", []string{"sweep", "sweep/x"}, true},
		{"empty", []string{"", "", "a/"}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			emptyRegistry(t)
			last := len(c.ids) - 1
			for i, id := range c.ids[:last] {
				Register(Experiment{Name: fmt.Sprint("e", i), CacheID: id, Run: nopRun})
			}
			defer func() {
				if panicked := recover() != nil; panicked != c.panics {
					t.Fatalf("registering %q after %q: panicked %v, want %v", c.ids[last], c.ids[:last], panicked, c.panics)
				}
				if _, ok := Lookup("last"); ok == c.panics {
					t.Fatalf("after registering %q: Lookup found it %v", c.ids[last], ok)
				}
			}()
			Register(Experiment{Name: "last", CacheID: c.ids[last], Run: nopRun})
		})
	}
}

// TestRunRejectsCellsOutsideCacheID registers an experiment whose second
// cell is keyed outside its CacheID. The registered Run must fail with an
// error naming that cell's id before the cell runs, with or without a
// cache directory; the same cells run directly, under no registered
// experiment, are not checked.
func TestRunRejectsCellsOutsideCacheID(t *testing.T) {
	emptyRegistry(t)
	var strayRuns atomic.Int32
	cellsWith := func(ns string, stray []any) []Cell[uint64] {
		return []Cell[uint64]{
			{Key: []any{"run", ns + "ok"}, Run: func(seed uint64) (uint64, error) { return seed, nil }},
			{Key: stray, Run: func(seed uint64) (uint64, error) { strayRuns.Add(1); return seed, nil }},
		}
	}
	for i, c := range []struct {
		stray []any
		id    string
	}{
		{[]any{"run", "other/x"}, "other/x"},
		{[]any{"stream", "other/x"}, "other/x"},
		{[]any{"run", "mine"}, "mine"},
		{[]any{"sweep", "cubic", 1500}, "sweep"},
	} {
		name, ns := fmt.Sprint("stray", i), fmt.Sprintf("mine/%d/", i)
		Register(Experiment{Name: name, CacheID: ns, Run: func(o Options) (Result, error) {
			_, err := Run(o, cellsWith(ns, c.stray))
			return nil, err
		}})
		e, _ := Lookup(name)
		for _, o := range []Options{
			{Reps: 2, Seed: 1, Workers: 1},
			{Reps: 2, Seed: 1, Workers: 2, CacheDir: t.TempDir()},
		} {
			_, err := e.Run(o)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", c.id)) {
				t.Errorf("key %v, %+v: err = %v, want one naming the id %q", c.stray, o, err, c.id)
			}
		}
		if n := strayRuns.Load(); n != 0 {
			t.Errorf("key %v: the stray cell ran %d times", c.stray, n)
		}
		if _, err := Run(Options{Reps: 2, Seed: 1, Workers: 1}, cellsWith(ns, c.stray)); err != nil {
			t.Errorf("key %v: unstamped Run failed: %v", c.stray, err)
		}
		strayRuns.Store(0)
	}

	Register(Experiment{Name: "inside", CacheID: "sweep", Run: func(o Options) (Result, error) {
		_, err := Run(o, []Cell[uint64]{{Key: []any{"sweep", "cubic", 1500}, Run: func(seed uint64) (uint64, error) { return seed, nil }}})
		return nil, err
	}})
	e, _ := Lookup("inside")
	if _, err := e.Run(Options{Reps: 2, Seed: 1, Workers: 1}); err != nil {
		t.Fatalf("a sweep-kind key inside the sweep namespace was rejected: %v", err)
	}
}
