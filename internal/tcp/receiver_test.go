package tcp

import (
	"slices"
	"testing"

	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
)

// rxHarness wires a Receiver to a host whose egress captures ACKs.
type rxHarness struct {
	engine *sim.Engine
	recv   *Receiver
	acks   []*netsim.Packet
}

func newRxHarness(t *testing.T, preciseCE bool) *rxHarness {
	t.Helper()
	h := &rxHarness{engine: sim.NewEngine()}
	host := netsim.NewHost(1, "rx")
	host.SetEgress(netsim.HandlerFunc(func(p *netsim.Packet) { h.acks = append(h.acks, p) }))
	cfg := DefaultConfig()
	cfg.RxPathCost = -1 // synchronous processing for these unit tests
	h.recv = newReceiver(h.engine, host, 1, 0, cfg, preciseCE)
	return h
}

func TestReceiverRxRingDelaysAndDrops(t *testing.T) {
	e := sim.NewEngine()
	host := netsim.NewHost(1, "rx")
	var acks []*netsim.Packet
	host.SetEgress(netsim.HandlerFunc(func(p *netsim.Packet) { acks = append(acks, p) }))
	cfg := DefaultConfig()
	cfg.RxPathCost = sim.Microsecond
	cfg.RxRingPackets = 4
	r := newReceiver(e, host, 1, 0, cfg, false)

	// Six back-to-back arrivals into a 4-deep ring: the first is admitted
	// and starts processing; when the 5th arrives the backlog is 4 (ring
	// full) so the 5th and 6th drop.
	for i := 0; i < 6; i++ {
		r.handleData(&netsim.Packet{Flow: 1, Seq: uint64(i * 1000), DataLen: 1000, WireSize: 1060, SentAt: e.Now()})
	}
	e.Run()
	if r.RxDropped != 2 {
		t.Fatalf("RxDropped = %d, want 2", r.RxDropped)
	}
	if r.SegmentsRecvd != 4 {
		t.Fatalf("processed = %d, want 4", r.SegmentsRecvd)
	}
	// Processing is serialized: in-order delivery of the 4 admitted
	// segments, last finished at 4 µs.
	if r.RcvNxt() != 4000 {
		t.Fatalf("rcvNxt = %d, want 4000", r.RcvNxt())
	}
	if e.Now() != 4*sim.Microsecond {
		t.Fatalf("last processing at %v, want 4µs", e.Now())
	}
}

// data builds an in-order data packet.
func (h *rxHarness) data(seq uint64, length int, flags netsim.Flags) *netsim.Packet {
	return &netsim.Packet{Flow: 1, Seq: seq, DataLen: length, WireSize: length + HeaderBytes, Flags: flags, SentAt: h.engine.Now()}
}

func TestReceiverDelayedAckEverySecondSegment(t *testing.T) {
	h := newRxHarness(t, false)
	h.recv.handleData(h.data(0, 1000, 0))
	if len(h.acks) != 0 {
		t.Fatal("first segment should be delack'd")
	}
	h.recv.handleData(h.data(1000, 1000, 0))
	if len(h.acks) != 1 {
		t.Fatalf("acks = %d after two segments, want 1", len(h.acks))
	}
	if h.acks[0].Ack != 2000 {
		t.Fatalf("ack = %d, want 2000", h.acks[0].Ack)
	}
}

func TestReceiverDelackTimerFires(t *testing.T) {
	h := newRxHarness(t, false)
	h.recv.handleData(h.data(0, 1000, 0))
	h.engine.Run()
	if len(h.acks) != 1 {
		t.Fatalf("delack timer did not fire: acks = %d", len(h.acks))
	}
	if h.acks[0].Ack != 1000 {
		t.Fatalf("ack = %d", h.acks[0].Ack)
	}
}

// TestReceiverEchoesINTAfterRecycle: the receiver recycles a data packet
// when it has processed it, and the pool hands the packet, INT array and
// all, to the next NewPacket before the delayed ACK fires. The ACK must
// still echo the hops the data packet carried, and a later data packet
// must not rewrite an ACK already sent.
func TestReceiverEchoesINTAfterRecycle(t *testing.T) {
	h := newRxHarness(t, false)
	host := h.recv.host
	first := []netsim.INTHop{{QueueBytes: 1, TxBytes: 10}, {QueueBytes: 2, TxBytes: 20}}
	second := []netsim.INTHop{{QueueBytes: 3, TxBytes: 30}}

	p := host.NewPacket()
	p.Flow, p.DataLen, p.WireSize, p.Flags = 1, 1000, 1000+HeaderBytes, netsim.FlagINT
	p.INT = append(p.INT, first...)
	h.recv.handleData(p)
	if len(h.acks) != 0 {
		t.Fatal("first segment should be delack'd")
	}
	reused := host.NewPacket()
	if reused != p {
		t.Fatal("the pool did not hand the recycled data packet back")
	}
	reused.INT = append(reused.INT, netsim.INTHop{QueueBytes: 99}, netsim.INTHop{QueueBytes: 98})
	h.engine.Run()
	if len(h.acks) != 1 {
		t.Fatalf("acks = %d after the delack timer, want 1", len(h.acks))
	}
	if got := h.acks[0].INT; !slices.Equal(got, first) {
		t.Fatalf("ACK echoes %v, want the data packet's %v", got, first)
	}

	q := h.data(1000, 1000, netsim.FlagINT)
	q.INT = append(q.INT, second...)
	h.recv.handleData(q)
	h.engine.Run()
	if len(h.acks) != 2 {
		t.Fatalf("acks = %d, want 2", len(h.acks))
	}
	if got := h.acks[0].INT; !slices.Equal(got, first) {
		t.Fatalf("the first ACK now echoes %v, want %v", got, first)
	}
	if got := h.acks[1].INT; !slices.Equal(got, second) {
		t.Fatalf("the second ACK echoes %v, want %v", got, second)
	}
}

func TestReceiverImmediateDupAckOnGap(t *testing.T) {
	h := newRxHarness(t, false)
	h.recv.handleData(h.data(0, 1000, 0))
	h.recv.handleData(h.data(2000, 1000, 0)) // gap at 1000
	if len(h.acks) != 1 {
		t.Fatalf("acks = %d, want immediate dup ack", len(h.acks))
	}
	ack := h.acks[0]
	if ack.Ack != 1000 {
		t.Fatalf("dupack cum = %d, want 1000", ack.Ack)
	}
	if len(ack.SACK) != 1 || ack.SACK[0].Start != 2000 || ack.SACK[0].End != 3000 {
		t.Fatalf("SACK = %v", ack.SACK)
	}
}

func TestReceiverFillsHoleAndAdvances(t *testing.T) {
	h := newRxHarness(t, false)
	h.recv.handleData(h.data(0, 1000, 0))
	h.recv.handleData(h.data(2000, 1000, 0))
	h.recv.handleData(h.data(1000, 1000, 0)) // fills the hole
	if h.recv.RcvNxt() != 3000 {
		t.Fatalf("rcvNxt = %d, want 3000", h.recv.RcvNxt())
	}
	if h.recv.TotalReceived != 3000 {
		t.Fatalf("TotalReceived = %d", h.recv.TotalReceived)
	}
}

func TestReceiverDuplicateAckedImmediately(t *testing.T) {
	h := newRxHarness(t, false)
	h.recv.handleData(h.data(0, 1000, 0))
	h.recv.handleData(h.data(1000, 1000, 0))
	n := len(h.acks)
	h.recv.handleData(h.data(0, 1000, 0)) // spurious retransmission
	if len(h.acks) != n+1 {
		t.Fatal("duplicate not acked immediately")
	}
	if h.recv.DupSegments != 1 {
		t.Fatalf("DupSegments = %d", h.recv.DupSegments)
	}
}

func TestReceiverSACKRecencyFirst(t *testing.T) {
	h := newRxHarness(t, false)
	// Many disjoint holes; the most recently received range must lead.
	h.recv.handleData(h.data(0, 1000, 0))
	for i := 0; i < 8; i++ {
		seq := uint64(2000 + i*2000)
		h.recv.handleData(h.data(seq, 1000, 0))
	}
	last := h.acks[len(h.acks)-1]
	if len(last.SACK) != 4 {
		t.Fatalf("SACK blocks = %d, want 4", len(last.SACK))
	}
	if last.SACK[0].Start != 16000 {
		t.Fatalf("first block = %+v, want the newest range (16000)", last.SACK[0])
	}
}

func TestReceiverSACKBlocksDisjoint(t *testing.T) {
	h := newRxHarness(t, false)
	h.recv.handleData(h.data(0, 1000, 0))
	for i := 0; i < 12; i++ {
		seq := uint64(2000 + i*2000)
		h.recv.handleData(h.data(seq, 1000, 0))
	}
	for _, ack := range h.acks {
		for i, b := range ack.SACK {
			if b.Start >= b.End {
				t.Fatalf("degenerate block %+v", b)
			}
			for j, c := range ack.SACK {
				if i != j && b == c {
					t.Fatalf("duplicate blocks in one ACK: %v", ack.SACK)
				}
			}
		}
	}
}

func TestReceiverClassicECNLatch(t *testing.T) {
	h := newRxHarness(t, false)
	h.recv.handleData(h.data(0, 1000, netsim.FlagECT|netsim.FlagCE))
	h.recv.handleData(h.data(1000, 1000, netsim.FlagECT))
	// The ACK covering the CE mark must carry ECE.
	if !h.acks[0].Flags.Has(netsim.FlagECE) {
		t.Fatal("ECE missing after CE")
	}
	// Latch cleared after one echo.
	h.recv.handleData(h.data(2000, 1000, netsim.FlagECT))
	h.recv.handleData(h.data(3000, 1000, netsim.FlagECT))
	if h.acks[1].Flags.Has(netsim.FlagECE) {
		t.Fatal("ECE persisted without new CE")
	}
	if h.recv.CEMarksSeen != 1 {
		t.Fatalf("CEMarksSeen = %d", h.recv.CEMarksSeen)
	}
}

func TestReceiverPreciseECNStateChangeForcesAck(t *testing.T) {
	h := newRxHarness(t, true)
	// CE state flips on the very first marked segment: immediate ACK
	// even though delack would normally wait for a second segment.
	h.recv.handleData(h.data(0, 1000, netsim.FlagECT|netsim.FlagCE))
	if len(h.acks) != 1 {
		t.Fatalf("acks = %d, want immediate ack on CE flip", len(h.acks))
	}
	if !h.acks[0].Flags.Has(netsim.FlagECE) {
		t.Fatal("precise ECE missing")
	}
	// Flip back to unmarked: another immediate ACK without ECE.
	h.recv.handleData(h.data(1000, 1000, netsim.FlagECT))
	if len(h.acks) != 2 {
		t.Fatalf("acks = %d, want immediate ack on flip back", len(h.acks))
	}
	if h.acks[1].Flags.Has(netsim.FlagECE) {
		t.Fatal("ECE set after CE cleared (precise mode)")
	}
}

func TestReceiverEchoTimestamp(t *testing.T) {
	h := newRxHarness(t, false)
	p := h.data(0, 1000, 0)
	p.SentAt = 12345
	h.recv.handleData(p)
	h.engine.Run() // delack fires
	if h.acks[0].EchoTS != 12345 {
		t.Fatalf("EchoTS = %v", h.acks[0].EchoTS)
	}
}

func TestReceiverIgnoresPureAcks(t *testing.T) {
	h := newRxHarness(t, false)
	h.recv.handleData(&netsim.Packet{Flow: 1, Flags: netsim.FlagACK, WireSize: HeaderBytes})
	if h.recv.SegmentsRecvd != 0 || len(h.acks) != 0 {
		t.Fatal("pure ACK processed as data")
	}
}

func TestReceiverPartialOverlapKeepsNewPart(t *testing.T) {
	h := newRxHarness(t, false)
	h.recv.handleData(h.data(0, 1000, 0))
	// Segment [500, 1500): first half duplicate, second half new.
	h.recv.handleData(h.data(500, 1000, 0))
	if h.recv.RcvNxt() != 1500 {
		t.Fatalf("rcvNxt = %d, want 1500", h.recv.RcvNxt())
	}
}
