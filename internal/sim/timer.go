package sim

import "fmt"

// Timer is a rearmable one-shot timer that never allocates after creation:
// it owns a single pinned Event and a pre-bound callback, so arming,
// rearming and stopping touch only the engine's heap. It exists for the
// cancel-and-rearm-per-ACK timers (TCP's RTO, tail-loss probe, pacing and
// delayed-ACK timers) that would otherwise allocate a fresh Event and
// closure on nearly every packet and litter the queue with dead events.
//
// A Timer is not safe for concurrent use; like the Engine itself it belongs
// to a single simulation goroutine. Owners may embed one by value and Init
// it in place; once armed it must not be copied, since the engine's heap
// points at its event.
type Timer struct {
	eng *Engine
	ev  Event
}

// NewTimer creates a stopped timer that runs fn each time it fires. The
// callback is fixed for the timer's lifetime; per-firing state belongs in
// the fields fn reads.
func (e *Engine) NewTimer(fn func()) *Timer {
	t := new(Timer)
	t.Init(e, fn)
	return t
}

// Init readies t in place as a stopped timer on e running fn, exactly as
// NewTimer does, so an owner can embed the timer rather than point at a
// separate allocation. t must not be armed.
func (t *Timer) Init(e *Engine, fn func()) {
	if fn == nil {
		panic("sim: timer with nil callback")
	}
	if t.eng != nil && t.Armed() {
		panic("sim: Init of an armed timer")
	}
	*t = Timer{eng: e}
	t.ev.eng = e
	t.ev.idx = -1
	t.ev.band = bandLocal
	t.ev.pinned = true
	t.ev.fn = fn
}

// Armed reports whether the timer is pending. A timer disarms itself when
// it fires.
func (t *Timer) Armed() bool { return t.ev.idx >= 0 }

// When returns the firing time when armed, or MaxTime when stopped.
func (t *Timer) When() Time {
	if !t.Armed() {
		return MaxTime
	}
	return t.ev.at
}

// ResetAt (re)arms the timer to fire at absolute time at. If the timer is
// already pending it is moved in place — one heap fix, no allocation, no
// dead event left behind. Rearming takes a fresh scheduling sequence
// number, so relative FIFO order against other events matches cancelling
// and scheduling anew.
//
//greenvet:hotpath
func (t *Timer) ResetAt(at Time) {
	e := t.eng
	if at < e.now {
		panic(fmt.Sprintf("sim: arming timer at %v before now %v", at, e.now))
	}
	t.ev.at = at
	t.ev.seq = e.nextSeq()
	if t.ev.idx >= 0 {
		e.fix(int(t.ev.idx))
		return
	}
	e.push(&t.ev)
}

// Reset (re)arms the timer to fire d nanoseconds from now.
func (t *Timer) Reset(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative timer delay %d", d))
	}
	t.ResetAt(t.eng.now + d)
}

// Stop disarms the timer. Unlike Event.Cancel it removes the event from the
// queue eagerly, so a stopped timer leaves nothing behind. Stopping a timer
// that is not armed is a no-op.
//
//greenvet:hotpath
func (t *Timer) Stop() {
	if t.ev.idx < 0 {
		return
	}
	if t.ev.dead {
		// Defensive: collect a lazy cancellation before eager removal.
		t.ev.dead = false
		t.eng.dead--
	}
	t.eng.removeAt(int(t.ev.idx))
}
