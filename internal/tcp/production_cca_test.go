package tcp

import (
	"testing"

	"greenenvy/internal/cca"
	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
)

// runProduction drives a bulk transfer of one §5 production algorithm over
// a marking bottleneck (DCQCN needs ECN; the threshold is harmless for the
// others).
func runProduction(t *testing.T, name string, bytes uint64) (*Sender, *netsim.Dumbbell) {
	t.Helper()
	e := sim.NewEngine()
	dcfg := netsim.DefaultDumbbell(1)
	dcfg.MarkBytes = 100 << 10
	d := netsim.NewDumbbell(e, dcfg)
	cfg := DefaultConfig()
	cfg.TxPathCost = 1500 * sim.Nanosecond
	cfg.NICRateBps = 20_000_000_000
	cc := cca.MustNew(name)
	newReceiver(e, d.Receiver, 1, d.Senders[0].ID, cfg, cc.ECNCapable())
	s := newSender(e, d.Senders[0], 1, d.Receiver.ID, bytes, cc, cfg)
	s.Start()
	e.RunUntil(120 * sim.Second)
	if !s.Done() {
		t.Fatalf("%s transfer incomplete (una=%d/%d retx=%d rto=%d)", name, s.sndUna, bytes, s.Retransmits, s.Timeouts)
	}
	return s, d
}

func TestProductionCCAsComplete(t *testing.T) {
	for _, name := range cca.ProductionOrder() {
		name := name
		t.Run(name, func(t *testing.T) {
			s, _ := runProduction(t, name, 100<<20)
			goodput := float64(100<<20) * 8 / s.FCT().Seconds()
			if goodput < 6e9 {
				t.Fatalf("%s goodput = %.2f Gb/s, want near line rate", name, goodput/1e9)
			}
		})
	}
}

func TestSwiftHoldsDelayTarget(t *testing.T) {
	s, d := runProduction(t, "swift", 100<<20)
	// Swift's 50 µs target above base bounds the standing queue at
	// roughly target × line rate = 62.5 KB; allow transients.
	if q := d.Bottleneck.Queue().Stats().MaxBytes; q > 400<<10 {
		t.Fatalf("swift max queue = %d, want bounded by the delay target", q)
	}
	if s.Retransmits > 10 {
		t.Fatalf("swift retransmits = %d, want ~0", s.Retransmits)
	}
}

func TestDCQCNSingleFlowCleanAtLineRate(t *testing.T) {
	// One smoothly-paced flow at line rate builds no queue: no marks, no
	// loss — the RDMA ideal.
	s, _ := runProduction(t, "dcqcn", 100<<20)
	if s.Retransmits > 50 {
		t.Fatalf("dcqcn retransmits = %d; rate control should avoid loss", s.Retransmits)
	}
}

func TestDCQCNCompetingFlowsUseECN(t *testing.T) {
	// Two DCQCN flows at line rate each overload the port: the control
	// loop must engage through CE marks and converge without heavy loss.
	e := sim.NewEngine()
	dcfg := netsim.DefaultDumbbell(2)
	dcfg.MarkBytes = 100 << 10
	d := netsim.NewDumbbell(e, dcfg)
	cfg := DefaultConfig()
	cfg.TxPathCost = 1500 * sim.Nanosecond
	cfg.NICRateBps = 20_000_000_000
	var ss []*Sender
	for i := 0; i < 2; i++ {
		flow := netsim.FlowID(i + 1)
		cc := cca.MustNew("dcqcn")
		newReceiver(e, d.Receiver, flow, d.Senders[i].ID, cfg, cc.ECNCapable())
		s := newSender(e, d.Senders[i], flow, d.Receiver.ID, 50<<20, cc, cfg)
		ss = append(ss, s)
		s.Start()
	}
	e.RunUntil(120 * sim.Second)
	for i, s := range ss {
		if !s.Done() {
			t.Fatalf("flow %d incomplete", i)
		}
	}
	if d.Bottleneck.Queue().Stats().MarkedCE == 0 {
		t.Fatal("competing DCQCN flows produced no CE marks")
	}
	total := ss[0].Retransmits + ss[1].Retransmits
	if total > 500 {
		t.Fatalf("dcqcn competing retransmits = %d; ECN should do the signalling", total)
	}
}

func TestHPCCReceivesTelemetryAndAvoidsQueueing(t *testing.T) {
	s, d := runProduction(t, "hpcc", 100<<20)
	h := s.CC().(*cca.HPCC)
	if !h.NeedsINT() {
		t.Fatal("HPCC must request INT")
	}
	if s.Retransmits > 10 {
		t.Fatalf("hpcc retransmits = %d, want ~0", s.Retransmits)
	}
	// 95% utilization target keeps the queue near empty.
	if q := d.Bottleneck.Queue().Stats().MaxBytes; q > 300<<10 {
		t.Fatalf("hpcc max queue = %d, want near-empty (η=0.95)", q)
	}
}

func TestINTStampedAndEchoed(t *testing.T) {
	// Direct check of the telemetry path: an INT-flagged data packet
	// accumulates hops, and the receiver echoes them on the ACK.
	e := sim.NewEngine()
	d := netsim.NewDumbbell(e, netsim.DefaultDumbbell(1))
	cfg := DefaultConfig()
	cfg.TxPathCost = 0
	var gotAck *netsim.Packet
	d.Senders[0].Attach(1, netsim.HandlerFunc(func(p *netsim.Packet) { gotAck = p }))
	newReceiver(e, d.Receiver, 1, d.Senders[0].ID, cfg, false)
	// Hand-send one INT data packet.
	d.Senders[0].Send(&netsim.Packet{
		Flow: 1, Dst: d.Receiver.ID, Seq: 0, DataLen: cfg.MSS(),
		WireSize: cfg.MTU, Flags: netsim.FlagINT, SentAt: e.Now(),
	})
	e.Run()
	if gotAck == nil {
		t.Fatal("no ACK")
	}
	// Three hops on the forward path: sender uplink, the bottleneck, and
	// the receiving NIC's ring (the HPCC-style first-hop NIC record).
	if len(gotAck.INT) != 3 {
		t.Fatalf("INT hops = %d, want 3", len(gotAck.INT))
	}
	for i, hop := range gotAck.INT[:2] {
		if hop.RateBps != 10_000_000_000 {
			t.Fatalf("link hop %d rate = %d", i, hop.RateBps)
		}
		if hop.At == 0 {
			t.Fatalf("hop %d missing timestamp", i)
		}
	}
	nic := gotAck.INT[2]
	wantNIC := int64(cfg.MTU) * 8 * int64(sim.Second) / int64(cfg.RxPathCost)
	if nic.RateBps != wantNIC {
		t.Fatalf("NIC hop rate = %d, want %d", nic.RateBps, wantNIC)
	}
}

func TestProductionCCAsCompeteFairly(t *testing.T) {
	// Two flows of the same production algorithm share the bottleneck:
	// both complete with comparable FCTs.
	for _, name := range cca.ProductionOrder() {
		name := name
		t.Run(name, func(t *testing.T) {
			e := sim.NewEngine()
			dcfg := netsim.DefaultDumbbell(2)
			dcfg.MarkBytes = 100 << 10
			d := netsim.NewDumbbell(e, dcfg)
			cfg := DefaultConfig()
			cfg.TxPathCost = 1500 * sim.Nanosecond
			cfg.NICRateBps = 20_000_000_000
			var ss []*Sender
			for i := 0; i < 2; i++ {
				flow := netsim.FlowID(i + 1)
				cc := cca.MustNew(name)
				newReceiver(e, d.Receiver, flow, d.Senders[i].ID, cfg, cc.ECNCapable())
				s := newSender(e, d.Senders[i], flow, d.Receiver.ID, 50<<20, cc, cfg)
				ss = append(ss, s)
				s.Start()
			}
			e.RunUntil(120 * sim.Second)
			for i, s := range ss {
				if !s.Done() {
					t.Fatalf("flow %d incomplete", i)
				}
			}
			r := ss[0].FCT().Seconds() / ss[1].FCT().Seconds()
			if r < 0.55 || r > 1.8 {
				t.Fatalf("%s FCT ratio %v: flows did not share", name, r)
			}
		})
	}
}
