package netsim

// Queue is the buffering-and-scheduling discipline of an output port. A
// transmitter calls Enqueue when a packet arrives for the port and Dequeue
// when the line becomes free; the queue decides admission (drop policy),
// marking (ECN), and service order (FIFO / weighted fair / priority).
//
// A queue holds a packet only between Enqueue and Dequeue and never
// recycles one: a packet it drops simply falls to the GC, since only the
// endpoint where a packet ends returns it to its host's pool.
type Queue interface {
	// Enqueue offers a packet. It returns false if the packet was
	// dropped; the caller must not retain dropped packets.
	Enqueue(p *Packet) bool
	// Dequeue removes and returns the next packet to transmit, or nil if
	// the queue is empty.
	Dequeue() *Packet
	// Len reports the number of queued packets.
	Len() int
	// Bytes reports the total wire bytes queued.
	Bytes() int
	// Stats returns cumulative counters since creation.
	Stats() QueueStats
}

// QueueStats are cumulative counters exposed by every queue discipline.
type QueueStats struct {
	EnqueuedPackets uint64
	DroppedPackets  uint64
	DroppedBytes    uint64
	MarkedCE        uint64 // packets marked congestion-experienced
	MaxBytes        int    // high-water mark of queued bytes
}

// DropTail is a classic FIFO queue with a byte-capacity limit and optional
// DCTCP-style ECN marking: packets that arrive to find more than MarkBytes
// already queued are marked CE if they are ECN-capable. This mirrors the
// instantaneous-queue marking a Tofino would be configured with for DCTCP.
type DropTail struct {
	// CapBytes is the buffer size; packets arriving when the queue holds
	// CapBytes or more are dropped. Zero means a practically unbounded
	// buffer (useful for access links that should never drop).
	CapBytes int
	// MarkBytes, if positive, is the instantaneous-queue ECN marking
	// threshold (the DCTCP "K" parameter, in bytes).
	MarkBytes int

	pkts  ring[*Packet]
	bytes int
	stats QueueStats
}

// NewDropTail returns a FIFO drop-tail queue with the given byte capacity
// (0 = unbounded) and ECN mark threshold (0 = no marking).
func NewDropTail(capBytes, markBytes int) *DropTail {
	return &DropTail{CapBytes: capBytes, MarkBytes: markBytes}
}

// Enqueue implements Queue.
func (q *DropTail) Enqueue(p *Packet) bool {
	if q.CapBytes > 0 && q.bytes+p.WireSize > q.CapBytes {
		q.stats.DroppedPackets++
		q.stats.DroppedBytes += uint64(p.WireSize)
		return false
	}
	if q.MarkBytes > 0 && q.bytes >= q.MarkBytes && p.Flags.Has(FlagECT) {
		p.Flags |= FlagCE
		q.stats.MarkedCE++
	}
	q.pkts.Push(p)
	q.bytes += p.WireSize
	q.stats.EnqueuedPackets++
	if q.bytes > q.stats.MaxBytes {
		q.stats.MaxBytes = q.bytes
	}
	return true
}

// Dequeue implements Queue.
func (q *DropTail) Dequeue() *Packet {
	p := q.pkts.Pop()
	if p == nil {
		return nil
	}
	q.bytes -= p.WireSize
	return p
}

// Len implements Queue.
func (q *DropTail) Len() int { return q.pkts.Len() }

// Bytes implements Queue.
func (q *DropTail) Bytes() int { return q.bytes }

// Stats implements Queue.
func (q *DropTail) Stats() QueueStats { return q.stats }
