package tcp

// fifo is a queue over one reusable backing array. Popping advances a head
// index instead of reslicing [1:], which would shed the array's front so
// that the next loss episode reallocates it. An emptied fifo rewinds to the
// array's start, and a push into a full array compacts the live entries to
// the front before append would grow it. The first backing array is inline,
// so a flow whose loss episodes never queue more than fifoFirst entries
// allocates none; a fifo holding entries must not be copied.
type fifo[T any] struct {
	buf   []T
	head  int
	first [fifoFirst]T
}

// fifoFirst is the capacity of a fifo's inline first array.
const fifoFirst = 8

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// front returns the oldest entry; the fifo must not be empty.
func (q *fifo[T]) front() T { return q.buf[q.head] }

// pop drops the oldest entry; the fifo must not be empty.
func (q *fifo[T]) pop() {
	q.head++
	if q.head == len(q.buf) {
		q.reset()
	}
}

func (q *fifo[T]) reset() { q.buf, q.head = q.buf[:0], 0 }

func (q *fifo[T]) push(v T) {
	if q.buf == nil {
		q.buf = q.first[:0]
	}
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v) // grows to the largest loss episode's backlog, then the array is reused
}
