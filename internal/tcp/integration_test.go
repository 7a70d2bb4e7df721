package tcp

import (
	"testing"

	"greenenvy/internal/cca"
	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
)

// TestIncastCollapseRecovers is the classic incast stress: many senders
// start simultaneously into a shallow bottleneck buffer. Throughput
// collapses transiently, but every flow must complete without deadlock.
func TestIncastCollapseRecovers(t *testing.T) {
	// 16 synchronized senders, MTU 1500, modest buffer: heavy transient
	// loss, but the fan-in must complete with reasonable aggregate
	// goodput (no livelock, no starvation).
	e := sim.NewEngine()
	cfg := netsim.DefaultDumbbell(16)
	cfg.BufferBytes = 512 << 10
	d := netsim.NewDumbbell(e, cfg)
	tcfg := DefaultConfig()
	tcfg.MTU = 1500
	tcfg.TxPathCost = 1500 * sim.Nanosecond
	tcfg.NICRateBps = 20_000_000_000

	var senders []*Sender
	for i := 0; i < 16; i++ {
		flow := netsim.FlowID(i + 1)
		newReceiver(e, d.Receiver, flow, d.Senders[i].ID, tcfg, false)
		s := newSender(e, d.Senders[i], flow, d.Receiver.ID, 4<<20, cca.MustNew("cubic"), tcfg)
		senders = append(senders, s)
		s.Start()
	}
	e.RunUntil(30 * sim.Second)
	var totalRetx uint64
	var last sim.Time
	for i, s := range senders {
		if !s.Done() {
			t.Fatalf("flow %d incomplete under incast", i)
		}
		totalRetx += s.Retransmits
		if s.CompletedAt > last {
			last = s.CompletedAt
		}
	}
	if totalRetx == 0 {
		t.Fatal("synchronized incast should drop packets")
	}
	goodput := float64(16*(4<<20)) * 8 / last.Seconds()
	if goodput < 1.5e9 {
		t.Fatalf("aggregate goodput %.2f Gb/s: incast livelocked", goodput/1e9)
	}
	// Pathological extreme for contrast: with jumbo frames and 32 flows,
	// minimum windows alone exceed the buffer — structural collapse —
	// yet every flow must still complete via timeouts.
	e2 := sim.NewEngine()
	cfg2 := netsim.DefaultDumbbell(32)
	cfg2.BufferBytes = 128 << 10
	d2 := netsim.NewDumbbell(e2, cfg2)
	jcfg := DefaultConfig()
	jcfg.TxPathCost = 1500 * sim.Nanosecond
	jcfg.NICRateBps = 20_000_000_000
	var extreme []*Sender
	for i := 0; i < 32; i++ {
		flow := netsim.FlowID(i + 1)
		newReceiver(e2, d2.Receiver, flow, d2.Senders[i].ID, jcfg, false)
		s := newSender(e2, d2.Senders[i], flow, d2.Receiver.ID, 1<<20, cca.MustNew("cubic"), jcfg)
		extreme = append(extreme, s)
		s.Start()
	}
	e2.RunUntil(60 * sim.Second)
	for i, s := range extreme {
		if !s.Done() {
			t.Fatalf("extreme-incast flow %d never completed", i)
		}
	}
}

// TestDCTCPFlowsShareViaECN runs two DCTCP flows through a marking
// bottleneck: both must finish with zero retransmissions (ECN does the
// congestion signalling) and roughly equal completion times.
func TestDCTCPFlowsShareViaECN(t *testing.T) {
	e := sim.NewEngine()
	cfg := netsim.DefaultDumbbell(2)
	cfg.MarkBytes = 90 << 10 // DCTCP K
	d := netsim.NewDumbbell(e, cfg)
	tcfg := DefaultConfig()
	tcfg.TxPathCost = 1500 * sim.Nanosecond
	tcfg.NICRateBps = 20_000_000_000

	var senders []*Sender
	const bytes = 100 << 20
	for i := 0; i < 2; i++ {
		flow := netsim.FlowID(i + 1)
		cc := cca.MustNew("dctcp")
		newReceiver(e, d.Receiver, flow, d.Senders[i].ID, tcfg, cc.ECNCapable())
		s := newSender(e, d.Senders[i], flow, d.Receiver.ID, bytes, cc, tcfg)
		senders = append(senders, s)
		s.Start()
	}
	e.RunUntil(60 * sim.Second)
	for i, s := range senders {
		if !s.Done() {
			t.Fatalf("flow %d incomplete", i)
		}
		if s.Retransmits > 5 {
			t.Errorf("flow %d retransmitted %d segments; DCTCP should avoid loss", i, s.Retransmits)
		}
	}
	// Completion times within 30% of each other (both ECN-governed).
	f0, f1 := senders[0].FCT().Seconds(), senders[1].FCT().Seconds()
	ratio := f0 / f1
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("DCTCP flows unfair: FCTs %.3fs vs %.3fs", f0, f1)
	}
	// The bottleneck must actually have marked packets.
	if d.Bottleneck.Queue().Stats().MarkedCE == 0 {
		t.Error("no CE marks applied at the bottleneck")
	}
}

// TestManyParallelCCAsCoexist runs one flow of every algorithm except the
// baseline simultaneously (the paper's footnote forbids the baseline from
// sharing a network). Everything must complete.
func TestManyParallelCCAsCoexist(t *testing.T) {
	names := []string{"reno", "cubic", "vegas", "westwood", "highspeed", "scalable", "bbr", "bbr2", "dctcp"}
	e := sim.NewEngine()
	d := netsim.NewDumbbell(e, netsim.DefaultDumbbell(len(names)))
	tcfg := DefaultConfig()
	tcfg.TxPathCost = 1500 * sim.Nanosecond
	tcfg.NICRateBps = 20_000_000_000

	var senders []*Sender
	for i, name := range names {
		flow := netsim.FlowID(i + 1)
		cc := cca.MustNew(name)
		newReceiver(e, d.Receiver, flow, d.Senders[i].ID, tcfg, cc.ECNCapable())
		s := newSender(e, d.Senders[i], flow, d.Receiver.ID, 20<<20, cc, tcfg)
		senders = append(senders, s)
		s.Start()
	}
	e.RunUntil(120 * sim.Second)
	for i, s := range senders {
		if !s.Done() {
			t.Fatalf("%s incomplete in the mixed-CCA run", names[i])
		}
	}
}
