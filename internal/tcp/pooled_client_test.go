package tcp_test

import (
	"testing"

	"greenenvy/internal/iperf"
	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
	"greenenvy/internal/tcp"
)

// seqDropDumbbell is a one-sender dumbbell whose bottleneck delivers through
// a tap that drops the first transmission of every data segment of flow f
// that starts at a sequence number in drop[f]. Drops are chosen by
// sequence number, so every transfer of a flow ID over the path loses the
// same segments.
func seqDropDumbbell(e *sim.Engine, drop map[netsim.FlowID]map[uint64]bool) *netsim.Dumbbell {
	d := netsim.NewDumbbell(e, netsim.DefaultDumbbell(1))
	tap := netsim.HandlerFunc(func(p *netsim.Packet) {
		if p.DataLen > 0 && !p.Retransmit && drop[p.Flow][p.Seq] {
			return
		}
		d.Receiver.HandlePacket(p)
	})
	d.Switch.Connect(d.Receiver.ID, netsim.NewLink(e, "tapped", 10_000_000_000, 5*sim.Microsecond, netsim.NewDropTail(1<<20, 0), tap))
	return d
}

// lossySpec is a cubic transfer of the given number of segments at MTU
// 1500.
func lossySpec(flow netsim.FlowID, segments uint64) iperf.Spec {
	return iperf.Spec{Flow: flow, Bytes: segments * 1440, CCA: "cubic",
		Config: tcp.Config{MTU: 1500, TxPathCost: 1500 * sim.Nanosecond}}
}

// lossyDrops loses segments 30, 32, … up to segment holesTo (disjoint
// holes, so the receiver buffers more out-of-order ranges than its inline
// array holds) and the run of 20 segments from burstAt (so loss inference
// queues, and recovery retransmits, more segments at once than either
// fifo's inline array holds).
func lossyDrops(holesTo, burstAt uint64) map[uint64]bool {
	drop := map[uint64]bool{}
	for i := uint64(30); i <= holesTo; i += 2 {
		drop[i*1440] = true
	}
	for i := burstAt; i < burstAt+20; i++ {
		drop[i*1440] = true
	}
	return drop
}

// runLossy starts c and runs e until it has no events left.
func runLossy(t *testing.T, e *sim.Engine, c *iperf.Client) {
	t.Helper()
	c.Start()
	e.Run()
	if !c.Done() || !c.Quiescent() {
		t.Fatalf("flow %d: done=%v quiescent=%v after the engine drained", c.Flow(), c.Done(), c.Quiescent())
	}
}

// receiverCounters is every counter a receiver reports.
type receiverCounters struct {
	total, segs, dups, acks, ce, rxDropped uint64
	oooHigh                                int
}

func countersOf(r *tcp.Receiver) receiverCounters {
	return receiverCounters{r.TotalReceived, r.SegmentsRecvd, r.DupSegments, r.AcksSent, r.CEMarksSeen, r.RxDropped, r.OutOfOrderHigh}
}

// TestPooledClientAfterLossyTransferRunsFresh: a client whose first
// transfer outgrew its inline first arrays (window, both retransmission
// fifos, the receiver's out-of-order set) is Reset without allocating, and
// its second lossy transfer reports exactly what a fresh client's does on a
// fresh engine: FCT, retransmits, timeouts, data packets, bytes and every
// receiver counter. The first transfer is longer and loses more, so a
// counter or a scoreboard that Reset left stale would show.
func TestPooledClientAfterLossyTransferRunsFresh(t *testing.T) {
	drop := map[netsim.FlowID]map[uint64]bool{1: lossyDrops(50, 100), 2: lossyDrops(40, 60)}
	e := sim.NewEngine()
	d := seqDropDumbbell(e, drop)
	c, err := iperf.NewClient(e, lossySpec(1, 300), d.Senders[0], d.Receiver, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	runLossy(t, e, c)
	window, retxQueue, retxWatch := c.Sender().Outgrown()
	if !window || !retxQueue || !retxWatch || !c.Receiver().Outgrown() {
		t.Fatalf("first transfer outgrew window=%v retxQueue=%v retxWatch=%v out-of-order set=%v, want all",
			window, retxQueue, retxWatch, c.Receiver().Outgrown())
	}

	// AllocsPerRun calls its function once unmeasured first; that call is
	// a no-op here, so the one measured call is the first Reset.
	warm := true
	allocs := testing.AllocsPerRun(1, func() {
		if warm {
			warm = false
			return
		}
		err = c.Reset(lossySpec(2, 200), d.Senders[0], d.Receiver, nil, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("Reset after a lossy transfer allocated %.0f objects, want 0", allocs)
	}
	runLossy(t, e, c)

	fe := sim.NewEngine()
	fd := seqDropDumbbell(fe, drop)
	fresh, err := iperf.NewClient(fe, lossySpec(2, 200), fd.Senders[0], fd.Receiver, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	runLossy(t, fe, fresh)

	got, want := c.Report(), fresh.Report()
	if want.Retransmits < 26 {
		t.Fatalf("fresh transfer retransmitted %d segments, want at least the 26 dropped", want.Retransmits)
	}
	if c.Sender().FCT() != fresh.Sender().FCT() || got.Retransmits != want.Retransmits ||
		got.Timeouts != want.Timeouts || got.DataSent != want.DataSent || got.Bytes != want.Bytes {
		t.Fatalf("pooled transfer: FCT %v, %d retransmits, %d timeouts, %d data packets, %d bytes;\n"+
			"fresh client: FCT %v, %d retransmits, %d timeouts, %d data packets, %d bytes",
			c.Sender().FCT(), got.Retransmits, got.Timeouts, got.DataSent, got.Bytes,
			fresh.Sender().FCT(), want.Retransmits, want.Timeouts, want.DataSent, want.Bytes)
	}
	if g, w := countersOf(c.Receiver()), countersOf(fresh.Receiver()); g != w {
		t.Fatalf("pooled receiver counters %+v, fresh %+v", g, w)
	}
}
