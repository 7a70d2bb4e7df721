package netsim

// ring is a growable FIFO ring buffer. Queue disciplines use it for their
// packet FIFOs and for the round-robin lists of backlogged flows instead of
// shift-by-reslice ([0] + [1:]) slices: those leak the consumed prefix, and
// an append after a [1:] pop slides the window off the end of the backing
// array, so a rotating list reallocates over and over. The ring reuses one
// power-of-two backing array for the life of the queue; steady-state
// push/pop is allocation-free.
type ring[T comparable] struct {
	buf  []T // power-of-two length, so indexing is a mask
	head int
	n    int
	// store, if set, supplies the first backing array.
	store *ringStore[T]
}

// ringFirst is the length of a ring's first backing array.
const ringFirst = 16

// ringChunk is the number of first arrays a ringStore allocates at once.
const ringChunk = 64

// ringStore carves the first backing arrays of many rings from shared
// chunks: a fabric's queues mostly never hold more than ringFirst packets,
// so each would otherwise pay an allocation for its first packet. A ring
// that outgrows its carved array copies out into one of its own, as from
// any other. Carving is lazy, so a ring that never queues costs nothing.
type ringStore[T comparable] struct {
	chunk []T
}

func (s *ringStore[T]) carve() []T {
	if len(s.chunk) == 0 {
		s.chunk = make([]T, ringFirst*ringChunk)
	}
	buf := s.chunk[:ringFirst:ringFirst]
	s.chunk = s.chunk[ringFirst:]
	return buf
}

// Len reports the number of buffered elements.
func (r *ring[T]) Len() int { return r.n }

// Push appends v to the tail.
func (r *ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the head element, or the zero value if the ring
// is empty.
func (r *ring[T]) Pop() T {
	var zero T
	if r.n == 0 {
		return zero
	}
	v := r.buf[r.head]
	r.buf[r.head] = zero // drop the reference for the GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// Peek returns the head element without removing it, or the zero value if
// the ring is empty.
func (r *ring[T]) Peek() T {
	if r.n == 0 {
		var zero T
		return zero
	}
	return r.buf[r.head]
}

// Rotate moves the head element to the tail: the next round-robin visit.
// The ring must not be empty.
func (r *ring[T]) Rotate() { r.Push(r.Pop()) }

// Remove deletes every element equal to v, keeping the others in order.
func (r *ring[T]) Remove(v T) {
	kept := 0
	mask := len(r.buf) - 1
	for i := 0; i < r.n; i++ {
		if w := r.buf[(r.head+i)&mask]; w != v {
			r.buf[(r.head+kept)&mask] = w
			kept++
		}
	}
	var zero T
	for i := kept; i < r.n; i++ {
		r.buf[(r.head+i)&mask] = zero
	}
	r.n = kept
}

func (r *ring[T]) grow() {
	if len(r.buf) == 0 && r.store != nil {
		r.buf = r.store.carve()
		return
	}
	newCap := 2 * len(r.buf)
	if newCap == 0 {
		newCap = ringFirst
	}
	next := make([]T, newCap) // doubles up to the peak queue depth
	for i := 0; i < r.n; i++ {
		next[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	if r.store != nil {
		// A carved array stays reachable through its chunk: drop its
		// references for the GC.
		clear(r.buf)
	}
	r.buf = next
	r.head = 0
}
