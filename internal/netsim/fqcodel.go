package netsim

import "greenenvy/internal/sim"

// DefaultFQCoDelQuantum is the per-visit byte credit for each flow queue:
// one jumbo frame, so a flow sending max-size packets releases exactly one
// per round.
const DefaultFQCoDelQuantum = 9216

// FQCoDel is the flow-queuing CoDel discipline (RFC 8290): each flow gets
// its own FIFO with its own CoDel control law, and flows are served by
// deficit round robin with the new-flow priority boost — a queue that was
// empty (a sparse flow, e.g. pure ACKs or a mouse) is scheduled ahead of the
// backlogged bulk queues until it uses a full quantum.
//
// Two deliberate deviations from the RFC, both documented because they are
// visible in stats: flows hash perfectly by FlowID (the simulator knows the
// real flow, so there are no hash collisions to model), and overflow
// tail-drops the arriving packet instead of dropping from the fattest queue
// (the fat-queue search is O(flows) per overflow; the experiments size
// CapBytes so overflow is the rare path, where the simpler policy does not
// change steady-state behaviour).
type FQCoDel struct {
	// CapBytes bounds the total buffered bytes across all flows
	// (0 = unbounded). Arrivals beyond the cap are dropped.
	CapBytes int
	// Quantum is the DRR byte credit per scheduling visit
	// (0 = DefaultFQCoDelQuantum).
	Quantum int
	// Target and Interval parameterize every per-flow CoDel instance
	// (0 = the datacenter-scaled CoDel defaults).
	Target   sim.Duration
	Interval sim.Duration

	engine   *sim.Engine
	flows    map[FlowID]*fqFlow
	newFlows ring[*fqFlow]
	oldFlows ring[*fqFlow]
	bytes    int
	npkts    int
	maxWire  int
	stats    QueueStats
}

// fqFlow is one flow's queue: its FIFO, DRR deficit, and CoDel state.
type fqFlow struct {
	id      FlowID
	ring    ring[qEntry]
	bytes   int
	deficit int
	ctl     codelCtl
	queued  bool // on newFlows or oldFlows
}

// NewFQCoDel returns a flow-queuing CoDel discipline with the given total
// byte capacity (0 = unbounded), per-visit quantum (0 = default jumbo
// frame), and CoDel parameters (0 = datacenter-scaled defaults). The engine
// is bound by NewLink via EngineBinder.
func NewFQCoDel(capBytes, quantum int, target, interval sim.Duration) *FQCoDel {
	if quantum == 0 {
		quantum = DefaultFQCoDelQuantum
	}
	if target == 0 {
		target = DefaultCoDelTarget
	}
	if interval == 0 {
		interval = DefaultCoDelInterval
	}
	return &FQCoDel{
		CapBytes: capBytes,
		Quantum:  quantum,
		Target:   target,
		Interval: interval,
		flows:    make(map[FlowID]*fqFlow),
	}
}

// BindEngine implements EngineBinder.
func (q *FQCoDel) BindEngine(e *sim.Engine) { q.engine = e }

// Enqueue implements Queue.
func (q *FQCoDel) Enqueue(p *Packet) bool {
	if q.CapBytes > 0 && q.bytes+p.WireSize > q.CapBytes {
		q.stats.DroppedPackets++
		q.stats.DroppedBytes += uint64(p.WireSize)
		return false
	}
	if p.WireSize > q.maxWire {
		q.maxWire = p.WireSize
	}
	f, ok := q.flows[p.Flow]
	if !ok {
		f = &fqFlow{id: p.Flow, ctl: codelCtl{target: q.Target, interval: q.Interval}}
		q.flows[p.Flow] = f
	}
	f.ring.Push(qEntry{p: p, at: q.engine.Now()})
	f.bytes += p.WireSize
	q.bytes += p.WireSize
	q.npkts++
	q.stats.EnqueuedPackets++
	if q.bytes > q.stats.MaxBytes {
		q.stats.MaxBytes = q.bytes
	}
	if !f.queued {
		// A flow that had drained re-enters as a new flow with a fresh
		// quantum: the sparse-flow priority boost.
		f.queued = true
		f.deficit = q.Quantum
		q.newFlows.Push(f)
	}
	return true
}

// Dequeue implements Queue: serve new flows first, then old, by deficit
// round robin; each service runs the flow's own CoDel law.
func (q *FQCoDel) Dequeue() *Packet {
	now := q.engine.Now()
	// Each iteration either returns a packet, retires an empty flow, or
	// charges a quantum and rotates — all monotone steps, so the loop
	// terminates; the guard protects against internal bugs only.
	for guard := 0; ; guard++ {
		if guard > 1<<22 {
			panic("netsim: FQCoDel failed to schedule a packet (internal bug)")
		}
		var f *fqFlow
		fromNew := false
		switch {
		case q.newFlows.Len() > 0:
			f = q.newFlows.Peek()
			fromNew = true
		case q.oldFlows.Len() > 0:
			f = q.oldFlows.Peek()
		default:
			return nil
		}
		if f.deficit <= 0 {
			f.deficit += q.Quantum
			if fromNew {
				q.newFlows.Pop()
				q.oldFlows.Push(f)
			} else {
				q.oldFlows.Rotate()
			}
			continue
		}
		before := f.ring.Len()
		p := f.ctl.dequeue(now, &f.ring, &q.bytes, &f.bytes, q.maxWire, &q.stats)
		q.npkts -= before - f.ring.Len()
		if p == nil {
			// The flow's queue drained (possibly via CoDel drops). An
			// empty new flow migrates to the old list so a quick
			// follow-up packet does not re-earn the sparse boost
			// (RFC 8290 §5.4.4); an empty old flow retires entirely.
			if fromNew {
				q.newFlows.Pop()
				q.oldFlows.Push(f)
			} else {
				q.oldFlows.Pop()
				f.queued = false
				delete(q.flows, f.id)
			}
			continue
		}
		f.deficit -= p.WireSize
		return p
	}
}

// Len implements Queue.
func (q *FQCoDel) Len() int { return q.npkts }

// Bytes implements Queue.
func (q *FQCoDel) Bytes() int { return q.bytes }

// Stats implements Queue.
func (q *FQCoDel) Stats() QueueStats { return q.stats }

// FlowTableSize reports how many flows currently hold queue state (tests
// use it to prove churn does not leak).
func (q *FQCoDel) FlowTableSize() int { return len(q.flows) }
