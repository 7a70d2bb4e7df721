package tcp

import (
	"greenenvy/internal/energy"
	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
)

// Receiver is the TCP data sink: it tracks in-order delivery, buffers
// out-of-order data for SACK generation, runs delayed ACKs, and echoes ECN
// marks (either the classic latched ECE or DCTCP's precise per-packet echo).
type Receiver struct {
	engine  *sim.Engine
	host    *netsim.Host
	flow    netsim.FlowID
	src     netsim.NodeID
	cfg     Config
	account *energy.Account

	rcvNxt  uint64
	ooo     rangeSet
	unacked int // full segments received since last ACK
	// delack is the delayed-ACK timer (rearmed in place, never
	// reallocated); delackEcho is the timestamp echo captured when it was
	// armed. It and rxq live inside the receiver, which therefore must not
	// be copied.
	delack     sim.Timer[Receiver]
	delackEcho sim.Time
	ceState    bool // DCTCP: CE value of the most recent segment
	ecePend    bool // whether the next ACK should carry ECE
	eceLatch   bool // classic ECN: latched until (never, in our sim) CWR
	preciseCE  bool // DCTCP-style accurate ECE feedback

	// recent holds representative sequence numbers of the most recently
	// updated out-of-order ranges, newest first, for RFC 2018-compliant
	// SACK block ordering (the block containing the most recently
	// received segment must come first, so the sender's scoreboard
	// converges even when there are more holes than SACK option space).
	recent []uint64
	// sackBuf is sackBlocks' scratch space: an ACK's blocks are copied
	// into its packet before the next ACK is assembled.
	sackBuf [maxSACKBlocks]byteRange

	// OnData observes in-order payload delivery (newly contiguous bytes);
	// throughput monitors attach here.
	OnData func(bytes int)

	// rxFreeAt is when the serialized receive path becomes free; the
	// gap to now is the ring backlog.
	rxFreeAt sim.Time
	// rxq defers packet processing until the serialized receive path
	// drains. Completion times are nondecreasing (rxFreeAt only moves
	// forward), so the backlog is FIFO: one standing event plus a ring
	// replaces an event and closure per deferred packet.
	rxq sim.DelayLine[Receiver, *netsim.Packet]
	// lastINT is a copy of the most recent data packet's telemetry, echoed
	// on the next ACK (HPCC): the packet, and with it its INT array, is
	// recycled before a delayed ACK fires. rxBytes counts wire bytes
	// processed, exposed as the NIC hop's transmit counter.
	lastINT []netsim.INTHop
	rxBytes uint64

	// Counters.
	TotalReceived  uint64 // in-order bytes delivered
	SegmentsRecvd  uint64
	DupSegments    uint64
	AcksSent       uint64
	CEMarksSeen    uint64
	RxDropped      uint64 // segments dropped by receive-ring overflow
	OutOfOrderHigh int    // high-water mark of buffered OOO ranges
}

// NewReceiver creates a receiver for flow on host, sending ACKs back to the
// sender node src. preciseCE selects DCTCP-style ECN feedback; the energy
// account may be nil.
func NewReceiver(engine *sim.Engine, host *netsim.Host, flow netsim.FlowID, src netsim.NodeID, cfg Config, preciseCE bool, account *energy.Account) *Receiver {
	r := &Receiver{engine: engine}
	r.delack.Init(engine, r, (*Receiver).onDelAck)
	r.rxq.Init(engine, r, (*Receiver).process)
	r.Reset(host, flow, src, cfg, preciseCE, account)
	return r
}

// Quiescent reports whether the receiver's serialized receive path has
// drained: no deferred packets remain in its ring. A pool must only
// recycle quiescent receivers — a pending rxq delivery would otherwise
// fire into the next flow's state. (The process-side flow guard drops any
// straggler that arrives at the host after rebinding.)
func (r *Receiver) Quiescent() bool { return r.rxq.Len() == 0 }

// Detach unbinds the receiver from its host's flow demux. Unpooled runs
// historically left receivers attached forever; the pooled churn path
// detaches so host flow tables stay bounded by the live-flow count.
func (r *Receiver) Detach() {
	if r.host != nil {
		r.host.Detach(r.flow)
	}
}

// Reset rebinds a receiver to a new flow, reusing its timers, its delay
// line, and the out-of-order/SACK bookkeeping backing arrays — the pooled
// churn path's allocation-free flow setup. The receiver must be Quiescent;
// any prior host binding is detached first. OnData is left untouched.
func (r *Receiver) Reset(host *netsim.Host, flow netsim.FlowID, src netsim.NodeID, cfg Config, preciseCE bool, account *energy.Account) {
	if r.rxq.Len() != 0 {
		panic("tcp: resetting a receiver with deferred packets")
	}
	r.Detach()
	r.delack.Stop()

	r.host = host
	r.flow = flow
	r.src = src
	r.cfg = cfg
	r.account = account
	r.preciseCE = preciseCE

	r.rcvNxt = 0
	r.ooo.reset()
	r.unacked = 0
	r.delackEcho = 0
	r.ceState = false
	r.ecePend = false
	r.eceLatch = false
	r.recent = r.recent[:0]
	r.rxFreeAt = 0
	r.lastINT = r.lastINT[:0]
	r.rxBytes = 0

	r.TotalReceived = 0
	r.SegmentsRecvd = 0
	r.DupSegments = 0
	r.AcksSent = 0
	r.CEMarksSeen = 0
	r.RxDropped = 0
	r.OutOfOrderHigh = 0

	host.Attach(flow, (*dataPort)(r))
}

// dataPort is the receiver as its host sees it: the handler for the flow's
// data packets. Converting the receiver's pointer to it allocates nothing,
// unlike wrapping the method value r.handleData.
type dataPort Receiver

// HandlePacket implements netsim.Handler.
func (p *dataPort) HandlePacket(pkt *netsim.Packet) { (*Receiver)(p).handleData(pkt) }

// RcvNxt returns the next expected sequence number (in-order bytes
// delivered so far).
func (r *Receiver) RcvNxt() uint64 { return r.rcvNxt }

// handleData is the receiver's host-attachment handler. A data packet ends
// in process, or here if it is a stray ACK or overflows the receive ring;
// either way it goes back to the host's packet pool.
func (r *Receiver) handleData(p *netsim.Packet) {
	if p.DataLen == 0 {
		r.host.Recycle(p) // stray ACK or control packet
		return
	}
	// Serialized receive-path model: ring admission, then processing
	// after the backlog drains.
	if r.cfg.RxPathCost > 0 {
		now := r.engine.Now()
		if r.rxFreeAt < now {
			r.rxFreeAt = now
		}
		ring := r.cfg.RxRingPackets
		if ring == 0 {
			ring = 512
		}
		if int((r.rxFreeAt-now)/r.cfg.RxPathCost) >= ring {
			r.RxDropped++
			r.host.Recycle(p)
			return
		}
		r.rxFreeAt += r.cfg.RxPathCost
		if done := r.rxFreeAt; done > now {
			r.rxq.Schedule(p, done)
			return
		}
	}
	r.process(p)
}

func (r *Receiver) process(p *netsim.Packet) {
	if p.Flow != r.flow {
		// A straggler from a flow this pooled receiver previously served
		// (e.g. a spurious retransmission still in the fabric when the
		// receiver was rebound). The original flow already completed —
		// completion is cumulative-ACK driven — so dropping it matches
		// what a detached, unpooled receiver would have done.
		r.host.Recycle(p)
		return
	}
	r.SegmentsRecvd++
	if p.Flags.Has(netsim.FlagINT) {
		// The receiving NIC is itself an INT hop (as in the HPCC paper,
		// where the NIC heads the hop list): expose the receive ring's
		// occupancy and drain rate so telemetry-driven senders can see
		// host-side bottlenecks, not just switch queues.
		if r.cfg.RxPathCost > 0 {
			now := r.engine.Now()
			backlog := 0
			if r.rxFreeAt > now {
				backlog = int(int64(r.rxFreeAt-now) * int64(p.WireSize) / int64(r.cfg.RxPathCost))
			}
			p.INT = append(p.INT, netsim.INTHop{
				QueueBytes: backlog,
				TxBytes:    r.rxBytes,
				At:         now,
				RateBps:    int64(p.WireSize) * 8 * int64(sim.Second) / int64(r.cfg.RxPathCost),
			})
		}
		r.lastINT = append(r.lastINT[:0], p.INT...)
	}
	r.rxBytes += uint64(p.WireSize)
	r.account.ReceivedData()
	now := p.SentAt

	// ECN processing.
	ce := p.Flags.Has(netsim.FlagCE)
	if ce {
		r.CEMarksSeen++
	}
	forceAck := false
	if r.preciseCE {
		// DCTCP: ACK immediately whenever the CE state flips so the
		// sender sees an accurate marked-byte count.
		if ce != r.ceState {
			forceAck = true
			r.ceState = ce
		}
		r.ecePend = ce
	} else if ce {
		r.eceLatch = true
	}

	start := p.Seq
	end := p.Seq + uint64(p.DataLen)
	if start < r.rcvNxt {
		start = r.rcvNxt // partial overlap: only the new part matters
	}
	switch {
	case end <= r.rcvNxt:
		// Duplicate (a spurious retransmission): ACK immediately.
		r.DupSegments++
		r.sendAck(now)
	case start == r.rcvNxt:
		// In-order (possibly after clamping a partial overlap):
		// advance, absorbing any buffered ranges.
		old := r.rcvNxt
		r.rcvNxt = r.ooo.popBelow(end)
		delivered := int(r.rcvNxt - old)
		r.TotalReceived += uint64(delivered)
		if r.OnData != nil {
			r.OnData(delivered)
		}
		r.unacked++
		if forceAck || r.unacked >= delAckSegs {
			r.sendAck(now)
		} else {
			r.armDelAck(now)
		}
	default:
		// Out of order: buffer, duplicate-ACK immediately.
		r.ooo.add(start, end)
		r.noteRecent(start)
		if r.ooo.len() > r.OutOfOrderHigh {
			r.OutOfOrderHigh = r.ooo.len()
		}
		r.sendAck(now)
	}
	r.host.Recycle(p)
}

// noteRecent records seq as belonging to the most recently updated range.
func (r *Receiver) noteRecent(seq uint64) {
	// Drop stale duplicates of the same position.
	out := r.recent[:0]
	out = append(out, seq)
	for _, k := range r.recent {
		if k != seq && len(out) < 8 {
			out = append(out, k)
		}
	}
	r.recent = out
}

// maxSACKBlocks is how many SACK blocks an ACK carries (the TCP option
// space's limit with timestamps off).
const maxSACKBlocks = 4

// sackBlocks assembles up to maxSACKBlocks SACK blocks, most recently
// updated range first (RFC 2018 §4), in the receiver's scratch space: the
// result is valid until the next call.
func (r *Receiver) sackBlocks() []byteRange {
	out := r.sackBuf[:0]
	for _, k := range r.recent {
		if k < r.rcvNxt {
			continue
		}
		rg, ok := r.ooo.find(k)
		if !ok {
			continue
		}
		dup := false
		for _, have := range out {
			if have == rg {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		out = append(out, rg)
		if len(out) == maxSACKBlocks {
			return out
		}
	}
	// Fill remaining slots with the lowest-first ranges.
	for _, rg := range r.ooo.blocks(maxSACKBlocks) {
		dup := false
		for _, have := range out {
			if have == rg {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, rg)
			if len(out) == maxSACKBlocks {
				break
			}
		}
	}
	return out
}

func (r *Receiver) armDelAck(echo sim.Time) {
	if r.delack.Armed() {
		return
	}
	r.delackEcho = echo
	r.delack.Reset(delAckTimeout)
}

func (r *Receiver) onDelAck() {
	if r.unacked > 0 {
		r.sendAck(r.delackEcho)
	}
}

func (r *Receiver) sendAck(echo sim.Time) {
	r.delack.Stop()
	r.unacked = 0
	ack := r.host.NewPacket()
	ack.Flow = r.flow
	ack.Dst = r.src
	ack.Ack = r.rcvNxt
	ack.WireSize = HeaderBytes
	ack.Flags = netsim.FlagACK
	ack.SentAt = r.engine.Now()
	ack.EchoTS = echo
	blocks := r.sackBlocks()
	if cap(ack.SACK) < len(blocks) {
		ack.SACK = r.host.NewSACK(maxSACKBlocks)
	}
	ack.SACK = ack.SACK[:len(blocks)]
	for i, b := range blocks {
		ack.SACK[i] = netsim.SACKBlock{Start: b.Start, End: b.End}
	}
	if len(r.lastINT) > 0 {
		ack.INT = append(ack.INT, r.lastINT...)
		r.lastINT = r.lastINT[:0]
	}
	if r.preciseCE {
		if r.ecePend {
			ack.Flags |= netsim.FlagECE
		}
	} else if r.eceLatch {
		ack.Flags |= netsim.FlagECE
		// Without CWR handling we clear the latch after one echo; the
		// classic algorithms in this testbed do not depend on
		// persistent ECE.
		r.eceLatch = false
	}
	r.AcksSent++
	r.account.SentAck()
	r.host.Send(ack)
}
