package tcp

import (
	"testing"
	"unsafe"

	"greenenvy/internal/cca"
	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
)

// senderHarness drives a Sender against a hand-written "network": outgoing
// segments are captured, and the test injects ACKs directly.
type senderHarness struct {
	engine *sim.Engine
	host   *netsim.Host
	snd    *Sender
	out    []*netsim.Packet
}

func newSenderHarness(t *testing.T, totalBytes uint64, ccName string, cfg Config) *senderHarness {
	t.Helper()
	h := &senderHarness{engine: sim.NewEngine()}
	h.host = netsim.NewHost(0, "tx")
	h.host.SetEgress(netsim.HandlerFunc(func(p *netsim.Packet) { h.out = append(h.out, p) }))
	h.snd = NewSender(h.engine, h.host, 1, 9, totalBytes, cca.MustNew(ccName), cfg, nil)
	return h
}

// ack injects a cumulative ACK (optionally with SACK blocks).
func (h *senderHarness) ack(cum uint64, sacks ...netsim.SACKBlock) {
	h.host.HandlePacket(&netsim.Packet{
		Flow: 1, Flags: netsim.FlagACK, Ack: cum, SACK: sacks, WireSize: HeaderBytes,
	})
}

func plainCfg() Config {
	cfg := DefaultConfig()
	cfg.MTU = 1060 // MSS 1000 for easy arithmetic
	cfg.TxPathCost = 0
	cfg.RxPathCost = -1
	return cfg
}

func TestSenderInitialWindowBurst(t *testing.T) {
	h := newSenderHarness(t, 100_000, "reno", plainCfg())
	h.snd.Start()
	h.engine.RunUntil(sim.Microsecond)
	// IW = 10 segments of 1000 bytes.
	if len(h.out) != 10 {
		t.Fatalf("initial burst = %d segments, want 10", len(h.out))
	}
	if h.snd.BytesInFlight() != 10_000 {
		t.Fatalf("pipe = %d", h.snd.BytesInFlight())
	}
	for i, p := range h.out {
		if p.Seq != uint64(i*1000) || p.DataLen != 1000 {
			t.Fatalf("segment %d = %v", i, p)
		}
	}
}

func TestSenderAckAdvancesAndSendsMore(t *testing.T) {
	h := newSenderHarness(t, 100_000, "reno", plainCfg())
	h.snd.Start()
	h.engine.RunUntil(100 * sim.Microsecond)
	n := len(h.out)
	h.engine.At(200*sim.Microsecond, func() { h.ack(2000) })
	h.engine.RunUntil(300 * sim.Microsecond)
	if h.snd.sndUna != 2000 {
		t.Fatalf("una = %d", h.snd.sndUna)
	}
	// Slow start: 2000 acked grows cwnd by 2000 → 4 new segments
	// (2 freed + 2 growth).
	if len(h.out) != n+4 {
		t.Fatalf("sent %d new segments, want 4", len(h.out)-n)
	}
}

func TestSenderCompletionCallback(t *testing.T) {
	h := newSenderHarness(t, 3000, "reno", plainCfg())
	done := false
	h.snd.OnComplete = func() { done = true }
	h.snd.Start()
	h.engine.At(50*sim.Microsecond, func() { h.ack(3000) })
	h.engine.RunUntil(sim.Second)
	if !done || !h.snd.Done() {
		t.Fatal("completion not signalled")
	}
	if h.snd.FCT() != 50*sim.Microsecond {
		t.Fatalf("FCT = %v", h.snd.FCT())
	}
	if h.snd.rtoTimer.Armed() || h.snd.tlpTimer.Armed() || h.snd.sendTimer.Armed() {
		t.Fatal("timers leaked after completion")
	}
	if h.engine.Pending() != 0 {
		t.Fatalf("Pending = %d after completion, want 0", h.engine.Pending())
	}
}

func TestSenderSACKTriggersFastRetransmit(t *testing.T) {
	h := newSenderHarness(t, 100_000, "reno", plainCfg())
	h.snd.Start()
	h.engine.RunUntil(10 * sim.Microsecond)
	// Segment 0 lost; SACK 4 segments above it (beyond ReorderSegs=3).
	h.engine.At(20*sim.Microsecond, func() {
		h.ack(0, netsim.SACKBlock{Start: 1000, End: 5000})
	})
	h.engine.RunUntil(30 * sim.Microsecond)
	// The first retransmission must be segment 0.
	var retx *netsim.Packet
	for _, p := range h.out {
		if p.Retransmit {
			retx = p
			break
		}
	}
	if retx == nil || retx.Seq != 0 {
		t.Fatalf("fast retransmit = %v, want seq 0", retx)
	}
	if h.snd.Retransmits != 1 {
		t.Fatalf("Retransmits = %d", h.snd.Retransmits)
	}
	if !h.snd.recovery {
		t.Fatal("not in recovery")
	}
}

func TestSenderReorderingToleratedWithinWindow(t *testing.T) {
	h := newSenderHarness(t, 100_000, "reno", plainCfg())
	h.snd.Start()
	h.engine.RunUntil(10 * sim.Microsecond)
	// SACK only 2 segments above the hole (< ReorderSegs): no loss yet.
	h.engine.At(20*sim.Microsecond, func() {
		h.ack(0, netsim.SACKBlock{Start: 1000, End: 3000})
	})
	h.engine.RunUntil(30 * sim.Microsecond)
	if h.snd.Retransmits != 0 {
		t.Fatalf("retransmitted on mild reordering: %d", h.snd.Retransmits)
	}
	if h.snd.recovery {
		t.Fatal("entered recovery on mild reordering")
	}
}

func TestSenderRTOBackoffDoubles(t *testing.T) {
	cfg := plainCfg()
	cfg.MinRTO = 10 * sim.Millisecond
	h := newSenderHarness(t, 50_000, "reno", cfg)
	h.snd.Start()
	// Establish a 20 µs RTT so the RTO floor (MinRTO) applies, then go
	// silent. RTOs fire at ~10ms, then backoff: +20ms, +40ms, +80ms.
	h.engine.At(20*sim.Microsecond, func() { h.ack(1000) })
	h.engine.RunUntil(160 * sim.Millisecond)
	if h.snd.Timeouts < 3 || h.snd.Timeouts > 5 {
		t.Fatalf("timeouts in 160ms = %d, want 4 with doubling backoff", h.snd.Timeouts)
	}
}

func TestSenderRTORetransmitsAllOutstanding(t *testing.T) {
	cfg := plainCfg()
	cfg.MinRTO = 5 * sim.Millisecond
	h := newSenderHarness(t, 6000, "reno", cfg)
	h.snd.Start()
	h.engine.At(20*sim.Microsecond, func() { h.ack(1000) }) // RTT estimate
	h.engine.RunUntil(6 * sim.Millisecond)
	if h.snd.Timeouts != 1 {
		t.Fatalf("timeouts = %d", h.snd.Timeouts)
	}
	// All 5 outstanding segments (1000..6000) are presumed lost: the
	// first goes out immediately; the rest wait in the retransmission
	// queue because the post-RTO window is one segment.
	if got := h.snd.retxQueue.len(); got != 4 {
		t.Fatalf("retx queue = %d entries, want 4 awaiting window", got)
	}
	var first *netsim.Packet
	for _, p := range h.out {
		if p.Retransmit && p.Seq == 1000 {
			first = p
		}
	}
	if first == nil {
		t.Fatal("lowest hole not retransmitted first after RTO")
	}
	// CC collapsed to 1 MSS.
	if h.snd.CC().CWnd() > 1000 {
		t.Fatalf("cwnd after RTO = %v", h.snd.CC().CWnd())
	}
}

func TestSenderTLPFiresBeforeRTO(t *testing.T) {
	cfg := plainCfg()
	cfg.MinRTO = 50 * sim.Millisecond
	h := newSenderHarness(t, 20_000, "reno", cfg)
	h.snd.Start()
	h.engine.RunUntil(10 * sim.Microsecond)
	// Establish an RTT estimate, acking everything except the tail.
	h.engine.At(100*sim.Microsecond, func() { h.ack(19_000) })
	// The last segment's ACK never arrives (tail loss). TLP should probe
	// at ~2·SRTT ≪ RTO.
	h.engine.RunUntil(40 * sim.Millisecond)
	if h.snd.Timeouts != 0 {
		t.Fatalf("RTO fired (%d) before TLP could probe", h.snd.Timeouts)
	}
	probes := 0
	for _, p := range h.out {
		if p.Retransmit && p.Seq == 19_000 {
			probes++
		}
	}
	if probes == 0 {
		t.Fatal("no tail loss probe sent")
	}
}

func TestSenderTLPRepairsTailLossEndToEnd(t *testing.T) {
	// Full-stack check: drop exactly the last data segment once; the
	// transfer must still complete quickly (no 10 ms RTO stall).
	e := sim.NewEngine()
	d := netsim.NewDumbbell(e, netsim.DefaultDumbbell(1))
	cfg := DefaultConfig()
	cfg.TxPathCost = 1500 * sim.Nanosecond
	total := uint64(50 * 8940) // 50 segments
	dropped := false
	// Interpose on the receiver host to drop the tail segment once.
	inner := d.Receiver
	tap := netsim.HandlerFunc(func(p *netsim.Packet) {
		if !dropped && p.DataLen > 0 && p.Seq == total-uint64(p.DataLen) {
			dropped = true
			return
		}
		inner.HandlePacket(p)
	})
	// Rewire: bottleneck link delivers to the tap instead of the host.
	d2 := netsim.NewDumbbell(e, netsim.DumbbellConfig{
		Senders: 1, BottleneckBps: 10e9, AccessBps: 10e9, BondedSenderLinks: 2,
		LinkDelay: 5 * sim.Microsecond, SwitchDelay: sim.Microsecond,
	})
	_ = d
	d2.Switch.Connect(d2.Receiver.ID, netsim.NewLink(e, "tapped", 10_000_000_000, 5*sim.Microsecond, netsim.NewDropTail(1<<20, 0), tap))
	inner = d2.Receiver

	NewReceiver(e, d2.Receiver, 1, d2.Senders[0].ID, cfg, false, nil)
	s := NewSender(e, d2.Senders[0], 1, d2.Receiver.ID, total, cca.MustNew("cubic"), cfg, nil)
	s.Start()
	e.RunUntil(sim.Second)
	if !s.Done() {
		t.Fatal("transfer incomplete")
	}
	if !dropped {
		t.Fatal("tail segment was not exercised")
	}
	// Without TLP this stalls ~10 ms (MinRTO); with TLP it finishes in
	// a few ms (2·SRTT probe + recovery).
	if s.FCT() > 8*sim.Millisecond {
		t.Fatalf("FCT = %v, want < 8ms with TLP", s.FCT())
	}
}

func TestSenderDataSentCounter(t *testing.T) {
	h := newSenderHarness(t, 10_000, "reno", plainCfg())
	h.snd.Start()
	h.engine.At(50*sim.Microsecond, func() { h.ack(10_000) })
	h.engine.RunUntil(sim.Second)
	if h.snd.DataSent != 10 {
		t.Fatalf("DataSent = %d, want 10", h.snd.DataSent)
	}
	if h.snd.AcksReceived != 1 {
		t.Fatalf("AcksReceived = %d", h.snd.AcksReceived)
	}
}

func TestSenderPartialAckKeepsRecovery(t *testing.T) {
	h := newSenderHarness(t, 100_000, "reno", plainCfg())
	h.snd.Start()
	h.engine.RunUntil(10 * sim.Microsecond)
	h.engine.At(20*sim.Microsecond, func() {
		// Two holes: 0-1000 and 5000-6000.
		h.ack(0, netsim.SACKBlock{Start: 1000, End: 5000}, netsim.SACKBlock{Start: 6000, End: 10000})
	})
	h.engine.At(40*sim.Microsecond, func() {
		// First hole repaired: partial ACK up to the second hole.
		h.ack(5000)
	})
	h.engine.RunUntil(60 * sim.Microsecond)
	if !h.snd.recovery {
		t.Fatal("recovery ended before the recovery point")
	}
	// Both holes must have been retransmitted.
	seqs := map[uint64]bool{}
	for _, p := range h.out {
		if p.Retransmit {
			seqs[p.Seq] = true
		}
	}
	if !seqs[0] || !seqs[5000] {
		t.Fatalf("retransmitted %v, want holes 0 and 5000", seqs)
	}
}

func TestSegmentRecordIs32Bytes(t *testing.T) {
	// Every in-window segment carries one record, so its size scales every
	// flow's window state: sequence number and length derive from the
	// record's index, and the record keeps only what they cannot give.
	if n := unsafe.Sizeof(segment{}); n != 32 {
		t.Fatalf("segment record is %d bytes, want 32", n)
	}
}
