// Package testdata exercises the hotpathalloc analyzer. The //greenvet:hotpath
// directive below marks step as the hot-path root; every function it reaches
// (directly, transitively, or as a method value) is checked. Each // want
// comment holds a regexp the diagnostic reported on that line must match.
package testdata

import "fmt"

type event struct {
	at int64
}

type ring struct {
	buf []int
}

type engine struct {
	pool   []*event
	events ring
	sink   interface{}
	fifo   queue[*event]
}

// queue is generic: calls through its instantiation reach the generic
// declaration's body.
type queue[T any] struct {
	buf []T
}

func (q *queue[T]) push(v T) {
	q.buf = append(q.buf, v) // want `append may grow its backing array`
}

// step advances the event loop by one event.
//
//greenvet:hotpath
func (e *engine) step(now int64) {
	ev := e.alloc()
	ev.at = now
	e.dispatch(ev)
	e.fifo.push(ev)
}

// alloc is reachable from step, so it is checked too.
func (e *engine) alloc() *event {
	if n := len(e.pool); n > 0 {
		ev := e.pool[n-1]
		e.pool = e.pool[:n-1]
		return ev
	}
	return &event{} // want `&T\{\.\.\.\} heap-allocates`
}

func (e *engine) dispatch(ev *event) {
	if ev.at < 0 {
		panic(fmt.Sprintf("event at %d", ev.at)) // panic ends the process: exempt
	}
	cb := func() { _ = ev } // want `closure literal allocates`
	cb()
	e.sink = *ev    // want `assignment boxes a concrete value`
	e.record(ev.at) // want `argument boxes a concrete value`
	e.push(int(ev.at))
	e.debug(ev)
	refill := e.refill // a method value keeps refill on the hot set
	refill()
}

func (e *engine) record(v interface{}) {
	_ = v
}

// push is hot; its growth is amortized by design, so the append carries a
// reviewed allow directive instead of a finding.
func (e *engine) push(v int) {
	e.events.buf = append(e.events.buf, v) //greenvet:allow hotpathalloc amortized growth reaches steady-state capacity
}

func (e *engine) debug(ev *event) {
	_ = fmt.Sprintf("ev@%d", ev.at) // want `fmt\.Sprintf allocates`
}

func (e *engine) refill() {
	e.pool = append(e.pool, nil) // want `append may grow its backing array`
	ev := new(event)             // want `new\(T\) heap-allocates`
	e.pool[len(e.pool)-1] = ev
	e.grow()
}

func (e *engine) grow() {
	e.events.buf = make([]int, 2*len(e.events.buf)) // want `make allocates`
	_ = e.format(nil)
}

func (e *engine) format(buf []byte) string {
	s := string(buf)      // want `string/byte-slice conversion copies and allocates`
	t := s + "!"          // want `string concatenation allocates`
	idx := map[int]bool{} // want `map/slice literal allocates`
	_ = idx
	e.record(ev2{}.ptr()) // a *event return is pointer-shaped: no boxing
	return t
}

type ev2 struct{}

func (ev2) ptr() *event { return nil }

// newEngine runs once at construction: it is not reachable from the root,
// so its allocations are legitimate and unflagged.
func newEngine() *engine {
	return &engine{pool: make([]*event, 0, 64)}
}
