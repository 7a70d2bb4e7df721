// Package sim provides the discrete-event simulation engine that underpins
// the greenenvy testbed: a virtual clock, an event queue with deterministic
// tie-breaking, seeded randomness helpers, and allocation-free scheduling
// primitives (rearmable Timers and FIFO DelayLines) for hot paths.
//
// Time is measured in integer nanoseconds from the start of the simulation.
// All components in internal/netsim, internal/tcp and internal/energy are
// driven from a single Engine, so a run is fully deterministic given its
// seed: no wall-clock time ever enters the simulation.
//
// The event queue is an inlined 4-ary min-heap over pooled event structs
// rather than container/heap (whose Push/Pop box every element through
// `any`): scheduling on the steady-state hot path performs zero heap
// allocations. Fired events are recycled through a free list, and a Timer
// that stops removes its event from the heap at once, so every queued event
// will fire.
package sim

import (
	"fmt"
	"math"
)

// Time is a simulated timestamp in nanoseconds since the start of the run.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration = Time

// Common durations, mirroring the time package for readability.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable simulated time. It is used as an
// "infinitely far in the future" sentinel for timers that are not armed.
const MaxTime Time = math.MaxInt64

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the time in seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// FromSeconds converts floating-point seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// event is a unit of scheduled work. Events are ordered by time; events at
// the same time fire in the order they were scheduled (FIFO), which keeps
// runs deterministic.
//
// An At/After event is pooled: the engine recycles it once it fires. A
// pinned event belongs to a Timer or DelayLine for its whole life and never
// enters the free list.
type event struct {
	at  Time
	seq uint64
	// fn runs the event. A pinned event's fn is its owner (the Timer or
	// DelayLine holding it), so firing dispatches to the owner with no
	// bound closure; an At/After event holds its func() as a callback,
	// which is pointer-shaped and so boxes without allocating.
	fn firer
	// idx is the position in the engine's heap array, -1 when not queued.
	idx int32
	// pinned events are owned by a Timer or DelayLine and are never
	// returned to the engine's free list.
	pinned bool
}

// firer is what an event runs when it fires. Timer and DelayLine implement
// it on their own pointers.
type firer interface{ fire() }

// callback adapts an At/After func to firer.
type callback func()

func (f callback) fire() { f() }

// Engine is the discrete-event scheduler. The zero value is not usable; use
// NewEngine.
type Engine struct {
	now Time
	seq uint64
	// events is a 4-ary min-heap on (at, seq). A 4-ary layout halves the
	// tree depth of a binary heap and keeps children in one cache line,
	// which measurably speeds up the sift loops that dominate scheduling.
	events []*event
	// free recycles fired At/After events.
	free  []*event
	fired uint64
	// Stop aborts Run when set; checked between events.
	stopped bool
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of events still queued.
func (e *Engine) Pending() int { return len(e.events) }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// nextSeq returns the next scheduling sequence number. The (time, seq)
// pair totally orders events, making ties deterministic.
func (e *Engine) nextSeq() uint64 {
	s := e.seq
	e.seq++
	return s
}

// alloc takes an event from the free list, or allocates one.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{idx: -1} // one allocation per peak concurrent event, then recycled forever
}

// release returns a fired event to the free list, dropping its callback so
// the engine does not pin caller memory.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	e.free = append(e.free, ev) // free list grows to the peak live-event count, then growth stops
}

// At schedules fn to run at absolute time t. Scheduling in the past (t less
// than Now) panics: it would make the clock run backwards, which is always a
// bug in the caller.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.at = t
	ev.seq = e.nextSeq()
	ev.fn = callback(fn)
	e.push(ev)
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.At(e.now+d, fn)
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// step executes the next event. It reports false when the queue is
// exhausted.
func (e *Engine) step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.popMin()
	if ev.at < e.now {
		panic("sim: event heap produced an event in the past")
	}
	e.now = ev.at
	e.fired++
	fn := ev.fn
	// Recycle before running fn so self-rescheduling callbacks (ticks,
	// retransmission chains) reuse the very event that fired.
	if !ev.pinned {
		e.release(ev)
	}
	fn.fire()
	return true
}

// Run executes events until the queue is empty or Stop is called. It returns
// the time of the last executed event.
func (e *Engine) Run() Time {
	e.stopped = false
	for !e.stopped && e.step() {
	}
	return e.now
}

// RunUntil executes events with firing time <= deadline, then advances the
// clock to the deadline if it is beyond the last event executed.
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	for !e.stopped && e.next() <= deadline && e.step() {
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// RunFor executes events for d nanoseconds of simulated time from now.
func (e *Engine) RunFor(d Duration) Time { return e.RunUntil(e.now + d) }

// next returns the firing time of the earliest queued event, or MaxTime
// when the queue is empty.
func (e *Engine) next() Time {
	if len(e.events) == 0 {
		return MaxTime
	}
	return e.events[0].at
}

// --- 4-ary heap over (at, seq) ---

// before reports whether a fires strictly before b: by time, then by
// scheduling sequence number.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts ev (whose at/seq are already set) into the heap.
func (e *Engine) push(ev *event) {
	ev.idx = int32(len(e.events))
	e.events = append(e.events, ev) // heap storage grows to the peak pending-event count
	e.siftUp(len(e.events) - 1)
}

// pushAt inserts a pinned event with an explicit (at, seq), used by
// DelayLine to re-insert deferred deliveries with the ordering rank they
// were assigned when originally scheduled.
func (e *Engine) pushAt(ev *event, at Time, seq uint64) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	ev.at = at
	ev.seq = seq
	e.push(ev)
}

// popMin removes and returns the earliest event.
func (e *Engine) popMin() *event {
	h := e.events
	root := h[0]
	n := len(h) - 1
	if n > 0 {
		h[0] = h[n]
		h[0].idx = 0
	}
	h[n] = nil
	e.events = h[:n]
	root.idx = -1
	if n > 1 {
		e.siftDown(0)
	}
	return root
}

// removeAt deletes the event at heap index i (Timer.Stop's eager removal).
func (e *Engine) removeAt(i int) {
	h := e.events
	ev := h[i]
	n := len(h) - 1
	if i != n {
		h[i] = h[n]
		h[i].idx = int32(i)
	}
	h[n] = nil
	e.events = h[:n]
	ev.idx = -1
	if i < n {
		e.fix(i)
	}
}

// fix restores the heap property around index i after its event's ordering
// key changed in place (Timer.Reset) or a leaf was swapped in (removeAt).
func (e *Engine) fix(i int) {
	ev := e.events[i]
	e.siftUp(i)
	if int(ev.idx) == i {
		e.siftDown(i)
	}
}

func (e *Engine) siftUp(i int) {
	h := e.events
	ev := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		p := h[parent]
		if !before(ev, p) {
			break
		}
		h[i] = p
		p.idx = int32(i)
		i = parent
	}
	h[i] = ev
	ev.idx = int32(i)
}

func (e *Engine) siftDown(i int) {
	h := e.events
	n := len(h)
	ev := h[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if before(h[c], h[best]) {
				best = c
			}
		}
		if !before(h[best], ev) {
			break
		}
		h[i] = h[best]
		h[i].idx = int32(i)
		i = best
	}
	h[i] = ev
	ev.idx = int32(i)
}
