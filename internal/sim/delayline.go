package sim

import "fmt"

// DelayLine delivers items at scheduled times through a single standing
// event plus a reusable ring buffer, for producers whose due times are
// nondecreasing: all the links and switches of a topology that share one
// fixed delay (a netsim stage), a serialized per-packet receive path. Such
// deliveries are FIFO by construction, so the engine's heap only ever
// needs to hold the head of the line — everything behind it waits in the
// ring. Scheduling a delivery is allocation-free once the ring has grown
// to the line's peak in-flight count.
//
// A line's first ring is an array inside it: one whose backlog never passes
// ringFirst deliveries, such as a mouse flow's receive path, allocates no
// ring at all.
//
// Determinism: each item captures its ordering rank (the engine's
// scheduling sequence number) at Schedule time, and the standing event is
// re-armed with that stored rank. Event interleaving is therefore
// bit-identical to scheduling one heap event per item, as the pre-pooling
// engine did.
//
// Like Timer, a line delivers to a method of its owner given as a method
// expression, such as (*Receiver).process, so binding allocates nothing.
type DelayLine[O, T any] struct {
	eng     *Engine
	owner   *O
	deliver func(*O, T)
	ev      event
	// ring is a power-of-two circular buffer of pending deliveries.
	ring []delayItem[T]
	head int
	n    int
	// lastAt guards the nondecreasing-due-times contract.
	lastAt Time
	// first backs ring until the backlog outgrows it.
	first [ringFirst]delayItem[T]
}

// ringFirst is the capacity of a line's inline first ring, a power of two.
const ringFirst = 16

type delayItem[T any] struct {
	item T
	at   Time
	seq  uint64
}

// Init readies d in place as an empty delay line on e delivering each item
// through fn(owner, item). d must hold no deliveries, and once initialized
// it must not be copied: its event points back at it.
func (d *DelayLine[O, T]) Init(e *Engine, owner *O, fn func(*O, T)) {
	if owner == nil || fn == nil {
		panic("sim: delay line with nil owner or deliver callback")
	}
	if d.n > 0 {
		panic("sim: Init of a delay line with deliveries in flight")
	}
	*d = DelayLine[O, T]{eng: e, owner: owner, deliver: fn, ev: event{fn: d, idx: -1, pinned: true}}
}

// Len reports the number of deliveries in flight.
func (d *DelayLine[O, T]) Len() int { return d.n }

// Schedule enqueues item for delivery at absolute time at. Due times must
// be nondecreasing across calls while the line is non-empty; violating that
// (e.g. by scheduling one fixed delay ahead, then a shorter one) panics
// rather than silently reordering deliveries.
func (d *DelayLine[O, T]) Schedule(item T, at Time) {
	e := d.eng
	if at < e.now {
		panic(fmt.Sprintf("sim: delay line delivery at %v before now %v", at, e.now))
	}
	if d.n > 0 && at < d.lastAt {
		panic(fmt.Sprintf("sim: delay line due times went backwards (%v after %v)", at, d.lastAt))
	}
	d.lastAt = at
	seq := e.nextSeq()
	d.pushRing(delayItem[T]{item: item, at: at, seq: seq})
	if d.ev.idx < 0 {
		// Idle line (or a delivery callback scheduling into its own
		// line): arm the standing event for the current head.
		h := &d.ring[d.head]
		e.pushAt(&d.ev, h.at, h.seq)
	}
}

// fire delivers the head item and re-arms for the next one.
func (d *DelayLine[O, T]) fire() {
	it := d.popRing()
	d.deliver(d.owner, it.item)
	if d.ev.idx < 0 && d.n > 0 {
		h := &d.ring[d.head]
		d.eng.pushAt(&d.ev, h.at, h.seq)
	}
}

func (d *DelayLine[O, T]) pushRing(it delayItem[T]) {
	if d.n == len(d.ring) {
		d.grow()
	}
	d.ring[(d.head+d.n)&(len(d.ring)-1)] = it
	d.n++
}

func (d *DelayLine[O, T]) popRing() delayItem[T] {
	it := d.ring[d.head]
	var zero delayItem[T]
	d.ring[d.head] = zero // drop the item reference for the GC
	d.head = (d.head + 1) & (len(d.ring) - 1)
	d.n--
	return it
}

// grow takes the inline first ring, then doubles (power-of-two capacity
// keeps indexing a mask).
func (d *DelayLine[O, T]) grow() {
	if d.ring == nil {
		d.ring = d.first[:]
		return
	}
	next := make([]delayItem[T], 2*len(d.ring)) // doubles up to the peak in-flight count
	for i := 0; i < d.n; i++ {
		next[i] = d.ring[(d.head+i)&(len(d.ring)-1)]
	}
	if len(d.ring) == ringFirst {
		clear(d.first[:]) // the one ring of that size is first; its items now live in next
	}
	d.ring = next
	d.head = 0
}
