package sim

import "testing"

// timerOwner embeds a Timer by value between other fields, the way a
// netsim.Link or a tcp.Sender holds its timers. The timer runs expire,
// which calls the test's hook.
type timerOwner struct {
	before int
	tm     Timer[timerOwner]
	after  int
	onFire func()
}

func (o *timerOwner) expire() { o.onFire() }

// timerConstructors builds a timer both ways an owner can hold one: as a
// separate allocation the owner points at (subtest NewTimer) and embedded
// by value (subtest Init), each readied with Init. Every timer test runs
// over both, so the two must behave identically.
var timerConstructors = []struct {
	name string
	new  func(e *Engine, fn func()) *Timer[timerOwner]
}{
	{"NewTimer", func(e *Engine, fn func()) *Timer[timerOwner] {
		tm := new(Timer[timerOwner])
		tm.Init(e, &timerOwner{onFire: fn}, (*timerOwner).expire)
		return tm
	}},
	{"Init", func(e *Engine, fn func()) *Timer[timerOwner] {
		o := &timerOwner{onFire: fn}
		o.tm.Init(e, o, (*timerOwner).expire)
		return &o.tm
	}},
}

func forEachTimer(t *testing.T, test func(t *testing.T, newTimer func(e *Engine, fn func()) *Timer[timerOwner])) {
	for _, c := range timerConstructors {
		t.Run(c.name, func(t *testing.T) { test(t, c.new) })
	}
}

func TestTimerFires(t *testing.T) {
	forEachTimer(t, func(t *testing.T, newTimer func(*Engine, func()) *Timer[timerOwner]) {
		e := NewEngine()
		var at Time
		tm := newTimer(e, func() { at = e.Now() })
		tm.Reset(10 * Millisecond)
		if !tm.Armed() {
			t.Fatal("timer not armed after Reset")
		}
		if tm.When() != 10*Millisecond {
			t.Fatalf("When = %v, want 10ms", tm.When())
		}
		e.Run()
		if at != 10*Millisecond {
			t.Fatalf("fired at %v, want 10ms", at)
		}
		if tm.Armed() {
			t.Fatal("timer still armed after firing")
		}
	})
}

func TestTimerResetRearmsInPlace(t *testing.T) {
	forEachTimer(t, func(t *testing.T, newTimer func(*Engine, func()) *Timer[timerOwner]) {
		e := NewEngine()
		count := 0
		tm := newTimer(e, func() { count++ })
		tm.Reset(10)
		tm.Reset(50) // push later
		tm.Reset(20) // pull earlier
		e.Run()
		if count != 1 {
			t.Fatalf("fired %d times, want 1 (Reset must rearm, not stack)", count)
		}
		if e.Now() != 20 {
			t.Fatalf("fired at %v, want 20 (last Reset wins)", e.Now())
		}
	})
}

func TestTimerStop(t *testing.T) {
	forEachTimer(t, func(t *testing.T, newTimer func(*Engine, func()) *Timer[timerOwner]) {
		e := NewEngine()
		fired := false
		tm := newTimer(e, func() { fired = true })
		tm.Reset(10)
		tm.Stop()
		if tm.Armed() {
			t.Fatal("timer armed after Stop")
		}
		if e.Pending() != 0 {
			t.Fatalf("Pending = %d after Stop, want 0 (Stop removes eagerly)", e.Pending())
		}
		e.Run()
		if fired {
			t.Fatal("stopped timer fired")
		}
		tm.Stop() // idempotent on a disarmed timer
	})
}

func TestTimerRestartAfterFire(t *testing.T) {
	forEachTimer(t, func(t *testing.T, newTimer func(*Engine, func()) *Timer[timerOwner]) {
		e := NewEngine()
		var fires []Time
		var tm *Timer[timerOwner]
		tm = newTimer(e, func() {
			fires = append(fires, e.Now())
			if len(fires) < 3 {
				tm.Reset(10) // periodic: rearm from inside the callback
			}
		})
		tm.Reset(10)
		e.Run()
		want := []Time{10, 20, 30}
		if len(fires) != 3 || fires[0] != want[0] || fires[1] != want[1] || fires[2] != want[2] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	})
}

// Timer firings obey the engine's FIFO tie-break exactly like plain events:
// among equal deadlines, whoever armed first fires first.
func TestTimerFIFOWithEvents(t *testing.T) {
	forEachTimer(t, func(t *testing.T, newTimer func(*Engine, func()) *Timer[timerOwner]) {
		e := NewEngine()
		var order []string
		tm := newTimer(e, func() { order = append(order, "timer") })
		e.At(10, func() { order = append(order, "a") })
		tm.ResetAt(10)
		e.At(10, func() { order = append(order, "b") })
		e.Run()
		if len(order) != 3 || order[0] != "a" || order[1] != "timer" || order[2] != "b" {
			t.Fatalf("order = %v, want [a timer b]", order)
		}
	})
}

// A Reset takes a fresh sequence number, so a rearmed timer moves behind
// events scheduled for the same instant after its original arming — the
// same ordering the old cancel-and-reschedule pattern produced.
func TestTimerResetTakesFreshSeq(t *testing.T) {
	forEachTimer(t, func(t *testing.T, newTimer func(*Engine, func()) *Timer[timerOwner]) {
		e := NewEngine()
		var order []string
		tm := newTimer(e, func() { order = append(order, "timer") })
		tm.ResetAt(10)
		e.At(10, func() { order = append(order, "event") })
		tm.ResetAt(10) // rearm: now logically behind the event
		e.Run()
		if len(order) != 2 || order[0] != "event" || order[1] != "timer" {
			t.Fatalf("order = %v, want [event timer]", order)
		}
	})
}

func TestTimerAllocFree(t *testing.T) {
	forEachTimer(t, func(t *testing.T, newTimer func(*Engine, func()) *Timer[timerOwner]) {
		e := NewEngine()
		tm := newTimer(e, func() {})
		tm.Reset(10)
		e.Run()
		if avg := testing.AllocsPerRun(100, func() {
			tm.Reset(7)
			tm.Reset(3)
			tm.Stop()
		}); avg != 0 {
			t.Fatalf("Reset/Stop allocated %.1f objects/op, want 0", avg)
		}
	})
}

// TestTimerInitRejectsArmedTimer: re-initializing a pending timer would
// orphan its event in the heap.
func TestTimerInitRejectsArmedTimer(t *testing.T) {
	e := NewEngine()
	o := &timerOwner{onFire: func() {}}
	o.tm.Init(e, o, (*timerOwner).expire)
	o.tm.Reset(10)
	defer func() {
		if recover() == nil {
			t.Fatal("Init of an armed timer did not panic")
		}
	}()
	o.tm.Init(e, o, (*timerOwner).expire)
}

// TestTimerBindAllocs pins the cost of binding a timer to its owner. A
// method expression is a static function value, so Init in place allocates
// nothing; binding a method value instead would add a closure.
func TestTimerBindAllocs(t *testing.T) {
	e := NewEngine()
	o := &timerOwner{onFire: func() {}}
	if avg := testing.AllocsPerRun(100, func() { o.tm.Init(e, o, (*timerOwner).expire) }); avg != 0 {
		t.Errorf("Init allocated %.1f objects, want 0", avg)
	}
}
