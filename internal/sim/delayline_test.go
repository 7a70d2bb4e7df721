package sim

import "testing"

// lineOwner embeds a DelayLine by value between other fields, the way a
// netsim.Link holds its wire and a tcp.Receiver its receive line. The line
// delivers through arrive, which calls the test's hook.
type lineOwner[T any] struct {
	before int
	line   DelayLine[lineOwner[T], T]
	after  int
	onItem func(T)
}

func (o *lineOwner[T]) arrive(v T) { o.onItem(v) }

// forEachDelayLine runs test over both ways an owner can hold a delay
// line: as a separate allocation the owner points at (subtest
// NewDelayLine) and embedded by value (subtest Init), each readied with
// Init. The two must behave identically.
func forEachDelayLine[T any](t *testing.T, test func(t *testing.T, newLine func(e *Engine, fn func(T)) *DelayLine[lineOwner[T], T])) {
	t.Run("NewDelayLine", func(t *testing.T) {
		test(t, func(e *Engine, fn func(T)) *DelayLine[lineOwner[T], T] {
			d := new(DelayLine[lineOwner[T], T])
			d.Init(e, &lineOwner[T]{onItem: fn}, (*lineOwner[T]).arrive)
			return d
		})
	})
	t.Run("Init", func(t *testing.T) {
		test(t, func(e *Engine, fn func(T)) *DelayLine[lineOwner[T], T] {
			o := &lineOwner[T]{onItem: fn}
			o.line.Init(e, o, (*lineOwner[T]).arrive)
			return &o.line
		})
	})
}

func TestDelayLineDeliversInOrder(t *testing.T) {
	forEachDelayLine(t, func(t *testing.T, newLine func(*Engine, func(int)) *DelayLine[lineOwner[int], int]) {
		e := NewEngine()
		var got []int
		var when []Time
		d := newLine(e, func(v int) { got = append(got, v); when = append(when, e.Now()) })
		d.Schedule(1, 10)
		d.Schedule(2, 10) // equal due time is allowed
		d.Schedule(3, 25)
		e.Run()
		if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
			t.Fatalf("delivered %v, want [1 2 3]", got)
		}
		if when[0] != 10 || when[1] != 10 || when[2] != 25 {
			t.Fatalf("delivery times %v, want [10 10 25]", when)
		}
	})
}

func TestDelayLineScheduleDuringDelivery(t *testing.T) {
	forEachDelayLine(t, func(t *testing.T, newLine func(*Engine, func(int)) *DelayLine[lineOwner[int], int]) {
		e := NewEngine()
		var got []int
		var d *DelayLine[lineOwner[int], int]
		d = newLine(e, func(v int) {
			got = append(got, v)
			if v < 3 {
				d.Schedule(v+1, e.Now()+5)
			}
		})
		d.Schedule(1, 10)
		e.Run()
		if len(got) != 3 || got[2] != 3 {
			t.Fatalf("delivered %v, want [1 2 3]", got)
		}
		if e.Now() != 20 {
			t.Fatalf("finished at %v, want 20", e.Now())
		}
	})
}

func TestDelayLineNonmonotonicPanics(t *testing.T) {
	forEachDelayLine(t, func(t *testing.T, newLine func(*Engine, func(int)) *DelayLine[lineOwner[int], int]) {
		e := NewEngine()
		d := newLine(e, func(int) {})
		d.Schedule(1, 20)
		defer func() {
			if recover() == nil {
				t.Error("nonmonotonic Schedule did not panic")
			}
		}()
		d.Schedule(2, 10)
	})
}

// Deliveries interleave with ordinary events by (time, scheduling order),
// exactly as if each item had its own heap event — the property the sweep
// golden digest depends on.
func TestDelayLineFIFOWithEvents(t *testing.T) {
	forEachDelayLine(t, func(t *testing.T, newLine func(*Engine, func(string)) *DelayLine[lineOwner[string], string]) {
		e := NewEngine()
		var order []string
		d := newLine(e, func(s string) { order = append(order, s) })
		e.At(10, func() { order = append(order, "a") })
		d.Schedule("x", 10)
		e.At(10, func() { order = append(order, "b") })
		d.Schedule("y", 10)
		e.Run()
		want := []string{"a", "x", "b", "y"}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("order = %v, want %v", order, want)
			}
		}
	})
}

func TestDelayLineSteadyStateAllocFree(t *testing.T) {
	forEachDelayLine(t, func(t *testing.T, newLine func(*Engine, func(int)) *DelayLine[lineOwner[int], int]) {
		e := NewEngine()
		n := 0
		d := newLine(e, func(int) { n++ })
		// Warm the ring past its steady-state occupancy.
		for i := 0; i < 64; i++ {
			d.Schedule(i, e.Now()+Time(i))
		}
		e.Run()
		if avg := testing.AllocsPerRun(100, func() {
			d.Schedule(0, e.Now()+10)
			e.Run()
		}); avg != 0 {
			t.Fatalf("DelayLine steady state allocated %.1f objects/op, want 0", avg)
		}
		if n == 0 {
			t.Fatal("no deliveries")
		}
	})
}

// TestDelayLineInitRejectsBusyLine: re-initializing a line with deliveries
// in flight would orphan them and its standing event.
func TestDelayLineInitRejectsBusyLine(t *testing.T) {
	e := NewEngine()
	o := &lineOwner[int]{onItem: func(int) {}}
	o.line.Init(e, o, (*lineOwner[int]).arrive)
	o.line.Schedule(1, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("Init of a busy delay line did not panic")
		}
	}()
	o.line.Init(e, o, (*lineOwner[int]).arrive)
}

// TestDelayLineInitAllocsZero pins that binding a line to its owner's
// method expression allocates nothing.
func TestDelayLineInitAllocsZero(t *testing.T) {
	e := NewEngine()
	o := &lineOwner[int]{onItem: func(int) {}}
	if avg := testing.AllocsPerRun(100, func() { o.line.Init(e, o, (*lineOwner[int]).arrive) }); avg != 0 {
		t.Fatalf("Init allocated %.1f objects, want 0", avg)
	}
}

// TestDelayLineFirstRingAllocs: a line's first ringFirst slots are inline,
// so a line whose backlog stays within them allocates nothing, and the
// first delivery past them moves a wrapped backlog into a grown ring in
// order.
func TestDelayLineFirstRingAllocs(t *testing.T) {
	e := NewEngine()
	var got []int
	o := &lineOwner[int]{onItem: func(v int) { got = append(got, v) }}
	o.line.Init(e, o, (*lineOwner[int]).arrive)
	// Each run readies the line afresh, so its ring starts empty.
	fill := func() {
		got = got[:0]
		o.line.Init(e, o, (*lineOwner[int]).arrive)
		for i := 0; i < ringFirst; i++ {
			o.line.Schedule(i, e.Now()+Time(i))
		}
		e.Run()
	}
	got = make([]int, 0, 4*ringFirst)
	if avg := testing.AllocsPerRun(10, fill); avg != 0 {
		t.Fatalf("a line with at most %d deliveries in flight allocated %.1f objects, want 0", ringFirst, avg)
	}

	// Wrap the backlog around the inline ring, then outgrow it.
	got = got[:0]
	next := 0
	at := e.Now()
	schedule := func(n int) {
		for ; n > 0; n-- {
			at++
			o.line.Schedule(next, at)
			next++
		}
	}
	schedule(ringFirst / 2)
	e.RunUntil(at - 2) // leaves two in flight, the head mid-ring
	schedule(ringFirst + 1)
	e.Run()
	if len(got) != next {
		t.Fatalf("delivered %d of %d", len(got), next)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("delivery %d carried %d, want %d: %v", i, v, i, got)
		}
	}
}
