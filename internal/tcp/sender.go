package tcp

import (
	"fmt"
	"math"

	"greenenvy/internal/cca"
	"greenenvy/internal/energy"
	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
)

// retxWatchEntry remembers when a segment was retransmitted.
type retxWatchEntry struct {
	seq uint64
	at  sim.Time
}

// segment tracks one transmitted data segment in the sender's window. It
// keeps only what the segment's index in segs cannot give: segs[i] starts
// at seqAt(i) and carries lenAt(i) bytes, so the record is 32 bytes.
type segment struct {
	sentAt sim.Time
	// Delivery-rate estimator snapshot at (re)transmit time.
	deliveredAtSend     uint64
	deliveredTimeAtSend sim.Time
	// jump accelerates SACK processing: for a sacked segment it is the
	// distance from the segment's start to (at least) the end of the
	// known-sacked run it begins, never less than its own length, so
	// re-reported blocks skip over already-processed data. Measured from
	// the segment's own start, it survives compaction, and it fits 32 bits
	// because sendOne keeps the window below 4 GiB.
	jump   uint32
	sacked bool
	lost   bool
	// counted reports whether this segment currently contributes to the
	// pipe (in-flight) estimate.
	counted       bool
	retransmitted bool
}

// Sender is a TCP bulk-data sender transferring a fixed number of bytes to
// a Receiver across the simulated network.
type Sender struct {
	engine  *sim.Engine
	host    *netsim.Host
	flow    netsim.FlowID
	dst     netsim.NodeID
	cfg     Config
	cc      cca.CongestionControl
	account energy.Account

	mss        int
	totalBytes uint64
	sndUna     uint64
	sndNxt     uint64
	wantsINT   bool

	// Window segments between sndUna and sndNxt. segs[0] starts at
	// segBase; all segments are mss bytes except possibly the last, so
	// seqAt and lenAt derive a segment's range from its index. segs is
	// always a sub-slice of segStore's allocation: popping the front
	// advances it, an emptied window rewinds it to segStore[:0], and
	// sendOne compacts live segments back to the front before an append
	// would otherwise reallocate — so one backing array serves the whole
	// transfer, and pooled reuse (Reset) carries it to the next flow. The
	// first backing array is firstSegs.
	segs     []segment
	segStore []segment
	segBase  uint64
	pipe     int

	// retxQueue holds sequence numbers of lost segments to retransmit,
	// in order.
	retxQueue fifo[uint64]
	// retxWatch tracks outstanding retransmissions so that a lost
	// retransmission is itself re-detected (RACK-style time threshold)
	// instead of stalling until the RTO.
	retxWatch fifo[retxWatchEntry]
	// lossScan is the index below which loss inference has already run.
	lossScan int
	// highSacked is the highest sequence selectively acknowledged.
	highSacked uint64

	rtt           rttEstimator
	delivered     uint64
	deliveredTime sim.Time

	recovery      bool
	recoveryPoint uint64
	// fastRetxPending marks that the first retransmission of the current
	// recovery episode has not yet gone out; it bypasses the pipe limit,
	// like a real stack's immediate fast retransmit.
	fastRetxPending bool

	// The three sender timers cancel-and-rearm on nearly every ACK, so
	// they are rearmable Timers (one pinned event each, bound to the
	// sender's methods) rather than a fresh event per arm. They live
	// inside the sender, which therefore must not be copied.
	rtoTimer   sim.Timer[Sender]
	rtoBackoff uint
	tlpTimer   sim.Timer[Sender]
	tlpArmedAt uint64 // delivered count when the probe was armed

	sendTimer  sim.Timer[Sender]
	nextSendAt sim.Time

	started bool
	done    bool

	// Counters and results.
	Retransmits  uint64
	Timeouts     uint64
	DataSent     uint64 // data packets sent, including retransmits
	AcksReceived uint64
	StartedAt    sim.Time
	CompletedAt  sim.Time
	// OnComplete, when non-nil, is told once when every byte has been
	// cumulatively acknowledged.
	OnComplete Completer

	// firstSegs is the window's first backing array, sized for the
	// initial window: a flow that never has more than windowFirst
	// segments in flight allocates no window.
	firstSegs [windowFirst]segment
}

// windowFirst is the capacity of a sender's inline first window: the
// 10-segment initial window, rounded up to fill a 512-byte size class.
const windowFirst = 16

// Completer is told when a sender's transfer completes. An owner that
// embeds its sender implements it through a named pointer type, as the
// endpoints implement netsim.Handler, so binding allocates nothing.
type Completer interface {
	TransferComplete()
}

// Init readies s in place as a sender for a totalBytes transfer from host
// to the receiver node dst over the given flow ID. The congestion
// controller is owned by the sender; the zero energy account reports
// nothing. Reuse an initialized sender with Reset. Once initialized, s
// must not be copied: its timers and its first window point into it.
func (s *Sender) Init(engine *sim.Engine, host *netsim.Host, flow netsim.FlowID, dst netsim.NodeID, totalBytes uint64, cc cca.CongestionControl, cfg Config, account energy.Account) {
	s.engine = engine
	s.segStore = s.firstSegs[:0]
	s.rtoTimer.Init(engine, s, (*Sender).onRTO)
	s.tlpTimer.Init(engine, s, (*Sender).onTLP)
	s.sendTimer.Init(engine, s, (*Sender).trySend)
	s.Reset(host, flow, dst, totalBytes, cc, cfg, account)
}

// Reset rebinds a sender to a new transfer, reusing its timers and the
// segment/retransmission backing arrays of previous flows — the
// pooled-churn path's allocation-free flow setup. The previous transfer
// must have completed (or never started); a sender that never completed
// is detached from its host first, as a completed one already is.
// OnComplete is left untouched so a pooled client keeps its one binding.
func (s *Sender) Reset(host *netsim.Host, flow netsim.FlowID, dst netsim.NodeID, totalBytes uint64, cc cca.CongestionControl, cfg Config, account energy.Account) {
	if cfg.MTU <= HeaderBytes {
		panic(fmt.Sprintf("tcp: MTU %d leaves no room for payload", cfg.MTU))
	}
	if totalBytes == 0 {
		panic("tcp: zero-byte transfer")
	}
	if s.started && !s.done {
		panic("tcp: resetting an active sender")
	}
	if s.host != nil && !s.done {
		s.host.Detach(s.flow)
	}
	s.rtoTimer.Stop()
	s.tlpTimer.Stop()
	s.sendTimer.Stop()

	s.host = host
	s.flow = flow
	s.dst = dst
	s.cfg = cfg
	s.cc = cc
	s.account = account
	s.mss = cfg.MSS()
	s.totalBytes = totalBytes
	s.wantsINT = false
	if ic, ok := cc.(cca.INTConsumer); ok && ic.NeedsINT() {
		s.wantsINT = true
	}

	s.sndUna = 0
	s.sndNxt = 0
	s.segs = s.segStore[:0]
	s.segBase = 0
	s.pipe = 0
	s.retxQueue.reset()
	s.retxWatch.reset()
	s.lossScan = 0
	s.highSacked = 0
	s.rtt = rttEstimator{}
	s.delivered = 0
	s.deliveredTime = 0
	s.recovery = false
	s.recoveryPoint = 0
	s.fastRetxPending = false
	s.rtoBackoff = 0
	s.tlpArmedAt = 0
	s.nextSendAt = 0
	s.started = false
	s.done = false

	s.Retransmits = 0
	s.Timeouts = 0
	s.DataSent = 0
	s.AcksReceived = 0
	s.StartedAt = 0
	s.CompletedAt = 0

	host.Attach(flow, (*ackPort)(s))
}

// ackPort is the sender as its host sees it: the handler for the flow's
// ACKs. Converting the sender's pointer to it allocates nothing, unlike
// wrapping the method value s.handleAck.
type ackPort Sender

// HandlePacket implements netsim.Handler.
func (p *ackPort) HandlePacket(pkt *netsim.Packet) { (*Sender)(p).handleAck(pkt) }

// Start begins the transfer at the current simulated time.
func (s *Sender) Start() {
	if s.started {
		panic("tcp: sender started twice")
	}
	s.started = true
	s.StartedAt = s.engine.Now()
	s.deliveredTime = s.engine.Now()
	s.cc.Init(s)
	s.trySend()
	s.armTLP()
}

// Finish trims the transfer to what has already been sent (the iperf3 -t
// time limit): no new data enters the pipe after the call, and the flow
// completes once everything in flight is acknowledged — immediately, if it
// already is. Retransmissions of in-flight data still happen, so the
// truncated transfer is delivered reliably. A no-op on a finished flow, and
// on one whose remaining bytes are already below what's been sent.
func (s *Sender) Finish() {
	if s.done || !s.started {
		return
	}
	if s.sndNxt >= s.totalBytes {
		return // the tail is already in flight; normal completion is imminent
	}
	s.totalBytes = s.sndNxt
	if s.sndUna >= s.totalBytes {
		s.complete(s.engine.Now())
	}
}

// Done reports whether the transfer completed.
func (s *Sender) Done() bool { return s.done }

// FCT returns the flow completion time, valid once Done.
func (s *Sender) FCT() sim.Duration { return s.CompletedAt - s.StartedAt }

// Flow returns the sender's flow ID.
func (s *Sender) Flow() netsim.FlowID { return s.flow }

// CC exposes the congestion controller (for traces and tests).
func (s *Sender) CC() cca.CongestionControl { return s.cc }

// --- cca.Conn interface ---

// Now implements cca.Conn.
func (s *Sender) Now() sim.Time { return s.engine.Now() }

// MSS implements cca.Conn.
func (s *Sender) MSS() int { return s.mss }

// SRTT implements cca.Conn.
func (s *Sender) SRTT() sim.Duration { return s.rtt.srtt }

// MinRTT implements cca.Conn.
func (s *Sender) MinRTT() sim.Duration { return s.rtt.minRTT }

// BytesInFlight implements cca.Conn.
func (s *Sender) BytesInFlight() int { return s.pipe }

// --- segment bookkeeping ---

// segIndex maps a sequence number to its index in segs. Sequence numbers
// must lie on segment boundaries (all segments are mss bytes except the
// final short one, which is still mss-aligned at its start).
func (s *Sender) segIndex(seq uint64) int {
	return int((seq - s.segBase) / uint64(s.mss))
}

// seqAt returns the first sequence number of segs[i].
func (s *Sender) seqAt(i int) uint64 {
	return s.segBase + uint64(i)*uint64(s.mss)
}

// lenAt returns the payload bytes of segs[i]. Only the segment ending at
// sndNxt can be short: a short segment carries the transfer's last bytes,
// and Finish trims the transfer to sndNxt, never inside a segment.
func (s *Sender) lenAt(i int) int {
	if rest := s.sndNxt - s.seqAt(i); rest < uint64(s.mss) {
		return int(rest)
	}
	return s.mss
}

// uncount takes segs[i] out of the pipe estimate if it is in it.
func (s *Sender) uncount(i int) {
	if sg := &s.segs[i]; sg.counted {
		s.pipe -= s.lenAt(i)
		sg.counted = false
	}
}

// markLost marks segs[i] lost, queues it for retransmission and returns
// its sequence number.
func (s *Sender) markLost(i int) uint64 {
	s.segs[i].lost = true
	s.uncount(i)
	seq := s.seqAt(i)
	s.retxQueue.push(seq)
	return seq
}

// --- receive path ---

// handleAck is the sender's host-attachment handler. An ACK ends here, so
// it goes back to the host's packet pool once processed. The host is read
// first: completion may rebind a pooled sender to another host.
func (s *Sender) handleAck(p *netsim.Packet) {
	h := s.host
	s.onAck(p)
	h.Recycle(p)
}

func (s *Sender) onAck(p *netsim.Packet) {
	if s.done || !p.Flags.Has(netsim.FlagACK) {
		return
	}
	s.AcksReceived++
	s.account.ReceivedAck()
	now := s.engine.Now()

	prevDelivered := s.delivered
	// newest is the most recently delivered segment, copied by value
	// because its slot in segs may be popped: the rate sample's source.
	var newest segment
	haveNewest := false

	// Cumulative acknowledgment.
	if p.Ack > s.sndUna {
		for len(s.segs) > 0 {
			length := s.lenAt(0)
			end := s.segBase + uint64(length)
			if end > p.Ack {
				break
			}
			s.uncount(0)
			sg := &s.segs[0]
			if !sg.sacked {
				s.delivered += uint64(length)
				s.deliveredTime = now
				if !sg.retransmitted {
					s.rtt.sample(now - sg.sentAt)
				}
			}
			newest, haveNewest = *sg, true
			s.segBase = end
			s.segs = s.segs[1:]
			if s.lossScan > 0 {
				s.lossScan--
			}
		}
		s.sndUna = p.Ack
		s.rtoBackoff = 0
		s.armRTO() // restart on forward progress (RFC 6298)
		if len(s.segs) == 0 {
			// Rewind onto the backing array's start so the next burst (or
			// the next pooled flow) reuses it instead of reallocating.
			s.segs = s.segStore[:0]
		}
	}

	// Selective acknowledgments.
	for _, blk := range p.SACK {
		if s.markSacked(blk.Start, blk.End, now, &newest) {
			haveNewest = true
		}
	}

	// Loss inference: data SACKed ReorderSegs segments above an unsacked
	// segment implies that segment is lost.
	s.inferLoss()
	s.expireRetransmissions(now)

	// Build the congestion-control event.
	info := cca.AckInfo{
		AckedBytes: int(s.delivered - prevDelivered),
		ECE:        p.Flags.Has(netsim.FlagECE),
		Delivered:  s.delivered,
		InRecovery: s.recovery,
		INT:        p.INT,
	}
	if haveNewest {
		interval := now - newest.deliveredTimeAtSend
		if interval > 0 {
			info.DeliveryRate = float64(s.delivered-newest.deliveredAtSend) / interval.Seconds()
		}
		info.AppLimited = s.cfg.RateLimitBps > 0
		if !newest.retransmitted {
			info.RTT = now - newest.sentAt
		}
	}
	if info.RTT == 0 {
		info.RTT = s.rtt.srtt
	}

	if info.AckedBytes > 0 {
		s.cc.OnAck(s, info)
	}

	// Recovery exit.
	if s.recovery && s.sndUna >= s.recoveryPoint {
		s.recovery = false
	}

	// Completion.
	if s.sndUna >= s.totalBytes {
		s.complete(now)
		return
	}

	s.trySend()
	s.armTLP()
}

// markSacked marks [start, end) selectively acknowledged. It reports
// whether it delivered any segment, copying the last one into newest.
func (s *Sender) markSacked(start, end uint64, now sim.Time, newest *segment) bool {
	if start < s.segBase {
		start = s.segBase
	}
	if start >= end {
		return false
	}
	found := false
	firstIdx := -1
	for seq := start; seq < end && seq < s.sndNxt; {
		idx := s.segIndex(seq)
		if idx < 0 || idx >= len(s.segs) {
			break
		}
		sg := &s.segs[idx]
		if firstIdx == -1 {
			firstIdx = idx
		}
		if sg.sacked {
			// Skip the known-sacked run.
			seq = s.seqAt(idx) + uint64(sg.jump)
			continue
		}
		length := s.lenAt(idx)
		s.uncount(idx)
		sg.sacked = true
		sg.jump = uint32(length)
		s.delivered += uint64(length)
		s.deliveredTime = now
		seq = s.seqAt(idx) + uint64(length)
		if seq > s.highSacked {
			s.highSacked = seq
		}
		*newest, found = *sg, true
	}
	// Path-compress: the block's first segment points at the furthest
	// sacked position we reached, so re-reports of this block are O(1).
	if firstIdx >= 0 && firstIdx < len(s.segs) && s.segs[firstIdx].sacked {
		limit := end
		if limit > s.sndNxt {
			limit = s.sndNxt
		}
		if jump := uint32(limit - s.seqAt(firstIdx)); jump > s.segs[firstIdx].jump {
			s.segs[firstIdx].jump = jump
		}
	}
	return found
}

// inferLoss marks unsacked segments well below the SACK frontier as lost
// and queues them for retransmission.
func (s *Sender) inferLoss() {
	if s.highSacked <= s.segBase {
		return
	}
	threshold := uint64(s.cfg.ReorderSegs * s.mss)
	if s.highSacked < s.segBase+threshold {
		return
	}
	limit := s.highSacked - threshold
	for ; s.lossScan < len(s.segs); s.lossScan++ {
		if s.seqAt(s.lossScan) >= limit {
			break
		}
		if sg := &s.segs[s.lossScan]; sg.sacked || sg.lost {
			continue
		}
		s.noteCongestion(s.markLost(s.lossScan))
	}
}

// noteCongestion reacts to a newly detected loss. Losing data sent after
// the current recovery point is a fresh congestion event and triggers
// another window reduction (RFC 6582's recovery-point rule).
func (s *Sender) noteCongestion(seq uint64) {
	if s.recovery && seq < s.recoveryPoint {
		return
	}
	s.recovery = true
	s.recoveryPoint = s.sndNxt
	s.fastRetxPending = true
	s.cc.OnLoss(s)
}

// expireRetransmissions re-marks as lost any retransmission that has been
// outstanding for well over an RTT without being SACKed — the
// retransmission itself was dropped. Without this, a lost retransmission
// stalls the connection until the RTO.
func (s *Sender) expireRetransmissions(now sim.Time) {
	reo := s.rtt.srtt + s.rtt.srtt/2
	if reo < 100*sim.Microsecond {
		reo = 100 * sim.Microsecond
	}
	for s.retxWatch.len() > 0 && now-s.retxWatch.front().at > reo {
		w := s.retxWatch.front()
		s.retxWatch.pop()
		if w.seq < s.segBase {
			continue // already cumulatively acked
		}
		i := s.segIndex(w.seq)
		sg := &s.segs[i]
		if sg.sacked || sg.lost || !sg.retransmitted {
			continue
		}
		if now-sg.sentAt <= reo {
			continue // retransmitted again more recently
		}
		s.noteCongestion(s.markLost(i))
	}
}

// --- transmit path ---

func (s *Sender) trySend() {
	if s.done {
		return
	}
	now := s.engine.Now()
	for {
		if s.nextSendAt > now {
			s.armSendTimer()
			return
		}
		if !s.sendOne(now) {
			return
		}
	}
}

// sendOne transmits at most one segment (retransmission first). It returns
// false when nothing can be sent.
func (s *Sender) sendOne(now sim.Time) bool {
	cwnd := int(s.cc.CWnd())

	// Retransmissions take priority and obey the pipe limit.
	for s.retxQueue.len() > 0 {
		seq := s.retxQueue.front()
		if seq < s.segBase { // already cumulatively acked
			s.retxQueue.pop()
			continue
		}
		i := s.segIndex(seq)
		sg := &s.segs[i]
		if sg.sacked || !sg.lost {
			s.retxQueue.pop()
			continue
		}
		if s.pipe+s.lenAt(i) > cwnd && !s.fastRetxPending {
			return false
		}
		s.fastRetxPending = false
		s.retxQueue.pop()
		sg.lost = false
		sg.retransmitted = true
		s.transmit(i, now, true)
		return true
	}

	// New data.
	if s.sndNxt >= s.totalBytes {
		return false
	}
	length := s.mss
	if remaining := s.totalBytes - s.sndNxt; remaining < uint64(length) {
		length = int(remaining)
	}
	if s.pipe+length > cwnd {
		return false
	}
	if len(s.segs) == 0 {
		s.segBase = s.sndNxt
		s.lossScan = 0
	}
	if s.sndNxt+uint64(length)-s.segBase > math.MaxUint32 {
		// segment.jump would overflow.
		panic(fmt.Sprintf("tcp: flow %d: send window would reach 4 GiB", s.flow))
	}
	if len(s.segs) == cap(s.segs) && cap(s.segs) < cap(s.segStore) {
		// The window has slid into the tail of the backing array; compact
		// the live segments back to its front (copy handles the overlap)
		// instead of letting append reallocate. Indices (lossScan) and
		// seq↔index mapping are offset-relative, so they survive the move.
		n := copy(s.segStore[:cap(s.segStore)], s.segs)
		s.segs = s.segStore[:n]
	}
	s.segs = append(s.segs, segment{})
	if cap(s.segs) > cap(s.segStore) {
		// append reallocated: adopt the larger array as the new backing.
		s.segStore = s.segs[:0]
	}
	s.sndNxt += uint64(length)
	s.transmit(len(s.segs)-1, now, false)
	return true
}

// transmit puts segs[i] on the wire and advances the send clock.
func (s *Sender) transmit(i int, now sim.Time, retx bool) {
	sg := &s.segs[i]
	sg.sentAt = now
	sg.counted = true
	sg.deliveredAtSend = s.delivered
	sg.deliveredTimeAtSend = s.deliveredTime
	length := s.lenAt(i)
	s.pipe += length

	wire := length + HeaderBytes
	p := s.host.NewPacket()
	p.Flow = s.flow
	p.Dst = s.dst
	p.Seq = s.seqAt(i)
	p.DataLen = length
	p.WireSize = wire
	p.SentAt = now
	p.Retransmit = retx
	if s.cc.ECNCapable() {
		p.Flags |= netsim.FlagECT
	}
	if s.wantsINT {
		p.Flags |= netsim.FlagINT
	}
	s.DataSent++
	if retx {
		s.Retransmits++
		s.retxWatch.push(retxWatchEntry{seq: p.Seq, at: now})
	}
	s.account.SentData(retx, int(s.sndNxt-s.sndUna))
	s.host.Send(p)
	if !s.rtoTimer.Armed() {
		s.armRTO()
	}

	// Serialized transmit-path cost, NIC backpressure, and pacing
	// determine the earliest next transmission.
	gap := s.cfg.TxPathCost
	if s.cfg.NICRateBps > 0 {
		ng := sim.Duration(int64(wire*8) * int64(sim.Second) / s.cfg.NICRateBps)
		if ng > gap {
			gap = ng
		}
	}
	if rate := s.cc.PacingRate(); rate > 0 {
		pg := sim.Duration(float64(wire*8) / rate * float64(sim.Second))
		if pg > gap {
			gap = pg
		}
	}
	if s.cfg.RateLimitBps > 0 {
		rg := sim.Duration(int64(wire*8) * int64(sim.Second) / s.cfg.RateLimitBps)
		if rg > gap {
			gap = rg
		}
	}
	s.nextSendAt = now + gap
}

func (s *Sender) armSendTimer() {
	if s.sendTimer.Armed() {
		return
	}
	s.sendTimer.ResetAt(s.nextSendAt)
}

// --- timers ---

// armTLP schedules a tail loss probe (RFC 8985 §7, simplified): when the
// flow is in a "tail" situation — no new data left, or too little in
// flight to generate three duplicate ACKs — a dropped segment would
// otherwise stall until the (10 ms floor) RTO. The probe retransmits the
// highest outstanding segment after ~2·SRTT, which elicits the SACK
// feedback normal recovery needs.
func (s *Sender) armTLP() {
	if s.done || s.pipe == 0 || s.retxQueue.len() > 0 {
		s.tlpTimer.Stop()
		return
	}
	if s.sndNxt < s.totalBytes && s.pipe >= 4*s.mss {
		s.tlpTimer.Stop()
		return // enough in flight for dupACK-based detection
	}
	pto := 2 * s.rtt.srtt
	if pto < sim.Millisecond {
		pto = sim.Millisecond
	}
	if s.rtt.srtt == 0 {
		pto = 5 * sim.Millisecond
	}
	s.tlpArmedAt = s.delivered
	s.tlpTimer.Reset(pto)
}

func (s *Sender) onTLP() {
	if s.done || s.pipe == 0 || s.delivered != s.tlpArmedAt {
		return // progress happened; no probe needed
	}
	// Probe with the highest outstanding unsacked segment.
	for i := len(s.segs) - 1; i >= 0; i-- {
		sg := &s.segs[i]
		if sg.sacked || sg.lost {
			continue
		}
		s.uncount(i)
		sg.retransmitted = true
		s.transmit(i, s.engine.Now(), true)
		break
	}
}

func (s *Sender) armRTO() {
	if s.pipe == 0 && s.retxQueue.len() == 0 && s.sndUna >= s.totalBytes {
		s.rtoTimer.Stop()
		return
	}
	// Clamp to the floor first, then apply exponential backoff, so each
	// backoff step doubles the previous effective timeout.
	d := s.rtt.rto()
	if d < s.cfg.MinRTO {
		d = s.cfg.MinRTO
	}
	d <<= s.rtoBackoff
	if d > maxRTO {
		d = maxRTO
	}
	s.rtoTimer.Reset(d)
}

func (s *Sender) onRTO() {
	if s.done {
		return
	}
	s.Timeouts++
	if s.rtoBackoff < 16 {
		s.rtoBackoff++
	}
	// Everything unsacked and outstanding is presumed lost.
	s.retxQueue.reset()
	s.lossScan = 0
	for i := range s.segs {
		if !s.segs[i].sacked {
			s.markLost(i)
		}
	}
	s.recovery = true
	s.recoveryPoint = s.sndNxt
	s.cc.OnRTO(s)
	s.nextSendAt = 0 // timeout overrides pacing
	s.armRTO()
	s.trySend()
}

func (s *Sender) complete(now sim.Time) {
	s.done = true
	s.CompletedAt = now
	s.rtoTimer.Stop()
	s.sendTimer.Stop()
	s.tlpTimer.Stop()
	s.host.Detach(s.flow)
	if s.OnComplete != nil {
		s.OnComplete.TransferComplete()
	}
}
