package sim

import "testing"

// lineOwner embeds a DelayLine by value between other fields, the way a
// netsim.Link holds its wire and a tcp.Receiver its receive line.
type lineOwner[T any] struct {
	before int
	line   DelayLine[T]
	after  int
}

// forEachDelayLine runs test over both ways an owner can build a delay
// line: NewDelayLine's separate allocation, and Init in place inside an
// owning struct. The two must behave identically.
func forEachDelayLine[T any](t *testing.T, test func(t *testing.T, newLine func(e *Engine, fn func(T)) *DelayLine[T])) {
	t.Run("NewDelayLine", func(t *testing.T) { test(t, NewDelayLine[T]) })
	t.Run("Init", func(t *testing.T) {
		test(t, func(e *Engine, fn func(T)) *DelayLine[T] {
			o := new(lineOwner[T])
			o.line.Init(e, fn)
			return &o.line
		})
	})
}

func TestDelayLineDeliversInOrder(t *testing.T) {
	forEachDelayLine(t, func(t *testing.T, newLine func(*Engine, func(int)) *DelayLine[int]) {
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
	forEachDelayLine(t, func(t *testing.T, newLine func(*Engine, func(int)) *DelayLine[int]) {
		e := NewEngine()
		var got []int
		var d *DelayLine[int]
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
	forEachDelayLine(t, func(t *testing.T, newLine func(*Engine, func(int)) *DelayLine[int]) {
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
	forEachDelayLine(t, func(t *testing.T, newLine func(*Engine, func(string)) *DelayLine[string]) {
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
	forEachDelayLine(t, func(t *testing.T, newLine func(*Engine, func(int)) *DelayLine[int]) {
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
	var d DelayLine[int]
	d.Init(e, func(int) {})
	d.Schedule(1, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("Init of a busy delay line did not panic")
		}
	}()
	d.Init(e, func(int) {})
}
