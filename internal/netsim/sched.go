package netsim

// DRR is a deficit-round-robin weighted fair queue. It is the mechanism the
// testbed uses to impose a controlled bandwidth allocation at the bottleneck
// for the paper's Figure 1 sweep: per-flow FIFO queues are served in
// proportion to their weights, and the discipline is work-conserving, so
// when one flow finishes the survivor immediately receives the full link —
// exactly "allowing the remaining flow to use the rest of the link" (§1).
//
// A flow with weight 0 is served only when every weighted flow is idle,
// which yields strict priority and therefore the "full speed, then idle"
// schedule at the extremes of the sweep.
type DRR struct {
	// CapBytes bounds the total buffered bytes across all flows
	// (0 = unbounded). Arrivals beyond the cap are dropped.
	CapBytes int
	// MarkBytes, if positive, applies DCTCP-style CE marking when total
	// queued bytes exceed the threshold at arrival.
	MarkBytes int

	// quantumUnit is the byte quantum corresponding to weight 1.0.
	quantumUnit int

	flows map[FlowID]*drrFlow
	// active and background are round-robin rings of backlogged flows.
	active     ring[*drrFlow]
	background ring[*drrFlow]
	bytes      int
	stats      QueueStats
}

type drrFlow struct {
	id        FlowID
	weight    float64
	quantum   int
	deficit   int
	pkts      ring[*Packet]
	bytes     int
	inRing    bool
	isServing bool // currently at the head of the ring mid-quantum
	closed    bool // released while backlogged; reclaim once the queue drains
}

// NewDRR returns a weighted fair queue with the given shared byte capacity
// (0 = unbounded) and ECN mark threshold (0 = no marking). Flows default to
// weight 1 on first arrival; call SetWeight to change the allocation.
func NewDRR(capBytes, markBytes int) *DRR {
	return &DRR{
		CapBytes:    capBytes,
		MarkBytes:   markBytes,
		quantumUnit: 1 << 20, // large vs any MTU so one visit usually suffices
		flows:       make(map[FlowID]*drrFlow),
	}
}

// SetWeight assigns the scheduling weight for a flow. Weight 0 demotes the
// flow to the background (strict-lowest-priority) class. Negative weights
// panic.
func (q *DRR) SetWeight(id FlowID, w float64) {
	if w < 0 {
		panic("netsim: negative DRR weight")
	}
	f := q.flow(id)
	f.weight = w
	f.quantum = int(w * float64(q.quantumUnit))
	if f.quantum == 0 && w > 0 {
		f.quantum = 1
	}
	// A weight change while backlogged moves the flow between rings.
	if f.inRing {
		q.removeFromRings(f)
		q.insert(f)
	}
}

// Weight returns the configured weight for a flow (1 if never set).
func (q *DRR) Weight(id FlowID) float64 { return q.flow(id).weight }

func (q *DRR) flow(id FlowID) *drrFlow {
	f, ok := q.flows[id]
	if !ok {
		f = &drrFlow{id: id, weight: 1, quantum: q.quantumUnit}
		q.flows[id] = f
	}
	return f
}

// Release reclaims the per-flow state auto-created by Enqueue/SetWeight once
// a flow tears down. Without it, long churn sweeps (incast with thousands of
// short flows) grow the flow table without bound. An idle flow is removed
// immediately; a backlogged flow is marked closed and reclaimed as soon as
// its queue drains, so no buffered packet is ever discarded by teardown. A
// packet arriving after Release (a stray retransmit) simply re-creates the
// flow at the default weight.
func (q *DRR) Release(id FlowID) {
	f, ok := q.flows[id]
	if !ok {
		return
	}
	if f.pkts.Len() > 0 {
		f.closed = true
		return
	}
	if f.inRing {
		q.removeFromRings(f)
	}
	delete(q.flows, id)
}

// FlowTableSize reports how many flows currently hold scheduler state,
// including closed-but-draining flows. Tests use it to prove churn runs
// hold a steady-state table size.
func (q *DRR) FlowTableSize() int { return len(q.flows) }

func (q *DRR) insert(f *drrFlow) {
	f.inRing = true
	f.isServing = false
	f.deficit = 0
	if f.weight == 0 {
		q.background.Push(f)
	} else {
		q.active.Push(f)
	}
}

func (q *DRR) removeFromRings(f *drrFlow) {
	q.active.Remove(f)
	q.background.Remove(f)
	f.inRing = false
	f.isServing = false
}

// Enqueue implements Queue.
func (q *DRR) Enqueue(p *Packet) bool {
	if q.CapBytes > 0 && q.bytes+p.WireSize > q.CapBytes {
		q.stats.DroppedPackets++
		q.stats.DroppedBytes += uint64(p.WireSize)
		return false
	}
	if q.MarkBytes > 0 && q.bytes >= q.MarkBytes && p.Flags.Has(FlagECT) {
		p.Flags |= FlagCE
		q.stats.MarkedCE++
	}
	f := q.flow(p.Flow)
	f.pkts.Push(p)
	f.bytes += p.WireSize
	q.bytes += p.WireSize
	q.stats.EnqueuedPackets++
	if q.bytes > q.stats.MaxBytes {
		q.stats.MaxBytes = q.bytes
	}
	if !f.inRing {
		q.insert(f)
	}
	return true
}

// Dequeue implements Queue. It serves weighted flows by deficit round
// robin and falls back to the background ring only when no weighted flow is
// backlogged.
func (q *DRR) Dequeue() *Packet {
	if p := q.dequeueRing(&q.active, true); p != nil {
		return p
	}
	return q.dequeueRing(&q.background, false)
}

func (q *DRR) dequeueRing(flows *ring[*drrFlow], useDeficit bool) *Packet {
	// Each backlogged flow receives at most one quantum refresh per pass,
	// so the loop is bounded: with B backlogged flows, at most B visits
	// occur before some deficit reaches the head packet size, because
	// quantums are positive. A generous iteration cap guards against
	// bugs rather than expected behaviour.
	for guard := 0; flows.Len() > 0; guard++ {
		if guard > 1<<22 {
			panic("netsim: DRR failed to schedule a packet (internal bug)")
		}
		f := flows.Peek()
		head := f.pkts.Peek()
		if useDeficit {
			if !f.isServing {
				f.deficit += f.quantum
				f.isServing = true
			}
			if f.deficit < head.WireSize {
				// Rotate: this flow waits for its next visit.
				f.isServing = false
				flows.Rotate()
				continue
			}
			f.deficit -= head.WireSize
		}
		f.pkts.Pop()
		f.bytes -= head.WireSize
		q.bytes -= head.WireSize
		if f.pkts.Len() == 0 {
			flows.Pop()
			f.inRing = false
			f.isServing = false
			f.deficit = 0
			if f.closed {
				delete(q.flows, f.id)
			}
		}
		return head
	}
	return nil
}

// Len implements Queue.
func (q *DRR) Len() int {
	n := 0
	for _, f := range q.flows {
		n += f.pkts.Len()
	}
	return n
}

// Bytes implements Queue.
func (q *DRR) Bytes() int { return q.bytes }

// Stats implements Queue.
func (q *DRR) Stats() QueueStats { return q.stats }

// FlowBytes reports the bytes currently queued for one flow.
func (q *DRR) FlowBytes(id FlowID) int {
	if f, ok := q.flows[id]; ok {
		return f.bytes
	}
	return 0
}
