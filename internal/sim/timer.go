package sim

import "fmt"

// Timer is a rearmable one-shot timer that never allocates after creation:
// it owns a single pinned event bound to an owner and one of the owner's
// methods, so arming, rearming and stopping touch only the engine's heap.
// It exists for the cancel-and-rearm-per-ACK timers (TCP's RTO, tail-loss
// probe, pacing and delayed-ACK timers) that would otherwise allocate a
// fresh event on nearly every packet.
//
// The method is given as a method expression, such as (*Link).onTxDone: a
// static function value, so binding allocates nothing, where a method value
// (l.onTxDone) would allocate a closure per timer.
//
// A Timer is not safe for concurrent use; like the Engine itself it belongs
// to a single simulation goroutine. Owners embed one by value and Init it
// in place; once initialized it must not be copied, since its event points
// back at it.
type Timer[O any] struct {
	eng   *Engine
	ev    event
	owner *O
	fn    func(*O)
}

// Init readies t in place as a stopped timer on e that runs fn(owner) each
// time it fires. The binding is fixed for the timer's lifetime; per-firing
// state belongs in the owner's fields. t must not be armed.
func (t *Timer[O]) Init(e *Engine, owner *O, fn func(*O)) {
	if owner == nil || fn == nil {
		panic("sim: timer with nil owner or callback")
	}
	if t.eng != nil && t.Armed() {
		panic("sim: Init of an armed timer")
	}
	*t = Timer[O]{eng: e, ev: event{fn: t, idx: -1, pinned: true}, owner: owner, fn: fn}
}

// fire runs the bound method.
func (t *Timer[O]) fire() { t.fn(t.owner) }

// Armed reports whether the timer is pending. A timer disarms itself when
// it fires.
func (t *Timer[O]) Armed() bool { return t.ev.idx >= 0 }

// When returns the firing time when armed, or MaxTime when stopped.
func (t *Timer[O]) When() Time {
	if !t.Armed() {
		return MaxTime
	}
	return t.ev.at
}

// ResetAt (re)arms the timer to fire at absolute time at. If the timer is
// already pending it is moved in place — one heap fix, no allocation.
// Arming takes a fresh scheduling sequence number, exactly as Engine.At
// does, so relative FIFO order against other events matches stopping the
// timer and scheduling anew.
func (t *Timer[O]) ResetAt(at Time) {
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
func (t *Timer[O]) Reset(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative timer delay %d", d))
	}
	t.ResetAt(t.eng.now + d)
}

// Stop disarms the timer, removing its event from the queue at once, so a
// stopped timer leaves nothing behind. Stopping a timer that is not armed
// is a no-op.
func (t *Timer[O]) Stop() {
	if t.ev.idx < 0 {
		return
	}
	t.eng.removeAt(int(t.ev.idx))
}
