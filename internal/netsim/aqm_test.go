package netsim

import (
	"testing"

	"greenenvy/internal/sim"
)

// aqmHarness drives a queue through a link so the AQM sees a real clock:
// offered load above the line rate builds a standing queue, which is what
// the control laws exist to dissolve.
type aqmHarness struct {
	e         *sim.Engine
	l         *Link
	delivered int
	marked    int
}

func newAQMHarness(q Queue) *aqmHarness {
	h := &aqmHarness{e: sim.NewEngine()}
	h.l = NewLink(h.e, "aqm", 1_000_000_000, 5*sim.Microsecond, q, HandlerFunc(func(p *Packet) {
		h.delivered++
		if p.Flags.Has(FlagCE) {
			h.marked++
		}
	}))
	return h
}

// offer injects n packets at fixed spacing (relative to the current clock),
// overdriving the 1 Gb/s line when spacing is below the 12 µs serialization
// time of a 1500 B frame, then runs the engine until the queue drains.
func (h *aqmHarness) offer(n int, spacing sim.Duration, flags Flags, flow FlowID) {
	base := h.e.Now()
	for i := 0; i < n; i++ {
		p := &Packet{Flow: flow, Dst: 1, WireSize: 1500, DataLen: 1460, Flags: flags}
		h.e.At(base+sim.Time(i)*spacing, func() { h.l.HandlePacket(p) })
	}
	h.e.Run()
}

func TestCoDelDropsUnderStandingQueue(t *testing.T) {
	q := NewCoDel(1<<22, 0, 0)
	h := newAQMHarness(q)
	// 2× overload for 2000 packets: the sojourn time blows far past the
	// 50 µs target and stays there, so the control law must engage.
	h.offer(2000, 6*sim.Microsecond, 0, 1)
	st := q.Stats()
	if st.DroppedPackets == 0 {
		t.Fatalf("CoDel dropped nothing under sustained 2x overload: %+v", st)
	}
	if h.delivered == 0 {
		t.Fatal("CoDel delivered nothing")
	}
	// The buffer cap is never hit in this test, so every drop is a law
	// drop after admission: admitted = delivered + dropped.
	if int(st.EnqueuedPackets) != h.delivered+int(st.DroppedPackets) {
		t.Fatalf("conservation: enqueued %d, delivered %d, dropped %d",
			st.EnqueuedPackets, h.delivered, st.DroppedPackets)
	}
}

func TestCoDelMarksECTInsteadOfDropping(t *testing.T) {
	q := NewCoDel(1<<22, 0, 0)
	h := newAQMHarness(q)
	h.offer(2000, 6*sim.Microsecond, FlagECT, 1)
	st := q.Stats()
	if st.MarkedCE == 0 {
		t.Fatalf("CoDel marked no ECT packets under overload: %+v", st)
	}
	if st.DroppedPackets != 0 {
		t.Fatalf("CoDel dropped %d ECT packets below the buffer cap, want 0 (mark instead)", st.DroppedPackets)
	}
	if h.marked != int(st.MarkedCE) {
		t.Fatalf("delivered CE %d != stats MarkedCE %d", h.marked, st.MarkedCE)
	}
}

func TestCoDelIdleBelowTargetDropsNothing(t *testing.T) {
	q := NewCoDel(1<<22, 0, 0)
	h := newAQMHarness(q)
	// At half the line rate the queue never stands: no drops, no marks.
	h.offer(500, 24*sim.Microsecond, FlagECT, 1)
	st := q.Stats()
	if st.DroppedPackets != 0 || st.MarkedCE != 0 {
		t.Fatalf("CoDel acted on an uncongested queue: %+v", st)
	}
	if h.delivered != 500 {
		t.Fatalf("delivered %d packets, want 500", h.delivered)
	}
}

func TestPIEDropsUnderStandingQueue(t *testing.T) {
	q := NewPIE(1<<22, 1_000_000_000, 0, 0, 7)
	h := newAQMHarness(q)
	h.offer(4000, 6*sim.Microsecond, 0, 1)
	st := q.Stats()
	// The 4 MB cap exceeds the worst-case 3 MB backlog of this offered
	// load, so every drop is a controller drop, not a tail drop. The final
	// drop probability is not asserted: the controller legitimately rings
	// back to zero once the queue drains.
	if st.DroppedPackets == 0 {
		t.Fatalf("PIE dropped nothing under sustained 2x overload: %+v", st)
	}
	if h.delivered == 0 {
		t.Fatal("PIE delivered nothing")
	}
}

func TestPIEDeterministicAcrossRuns(t *testing.T) {
	run := func() (uint64, int) {
		q := NewPIE(1<<22, 1_000_000_000, 0, 0, 7)
		h := newAQMHarness(q)
		h.offer(4000, 6*sim.Microsecond, 0, 1)
		return q.Stats().DroppedPackets, h.delivered
	}
	d1, n1 := run()
	d2, n2 := run()
	if d1 != d2 || n1 != n2 {
		t.Fatalf("PIE not deterministic: run1 (%d dropped, %d delivered) vs run2 (%d, %d)", d1, n1, d2, n2)
	}
}

func TestPIEIdleDropsNothing(t *testing.T) {
	q := NewPIE(1<<22, 1_000_000_000, 0, 0, 7)
	h := newAQMHarness(q)
	h.offer(500, 24*sim.Microsecond, 0, 1)
	if st := q.Stats(); st.DroppedPackets != 0 {
		t.Fatalf("PIE dropped on an uncongested queue: %+v", st)
	}
}

func TestFQCoDelIsolatesSparseFlowFromBulk(t *testing.T) {
	q := NewFQCoDel(1<<22, 0, 0, 0)
	e := sim.NewEngine()
	var bulkLast, sparseLast sim.Time
	sparseN := 0
	l := NewLink(e, "fq", 1_000_000_000, 5*sim.Microsecond, q, HandlerFunc(func(p *Packet) {
		if p.Flow == 1 {
			bulkLast = e.Now()
		} else {
			sparseLast = e.Now()
			sparseN++
		}
	}))
	// Flow 1 dumps a 200-packet burst at t=0; flow 2 sends a single small
	// packet at t=100µs, arriving behind a deep standing queue.
	for i := 0; i < 200; i++ {
		p := &Packet{Flow: 1, Dst: 1, WireSize: 1500, DataLen: 1460}
		e.At(0, func() { l.HandlePacket(p) })
	}
	sp := &Packet{Flow: 2, Dst: 1, WireSize: 100, DataLen: 60}
	e.At(100*sim.Microsecond, func() { l.HandlePacket(sp) })
	e.Run()
	if sparseN != 1 {
		t.Fatalf("sparse packet not delivered (delivered %d)", sparseN)
	}
	// The new-flow boost must put the sparse packet ahead of the remaining
	// bulk backlog: it left long before the bulk flow finished.
	if sparseLast >= bulkLast {
		t.Fatalf("sparse flow (done %v) did not bypass bulk backlog (done %v)", sparseLast, bulkLast)
	}
	// ~1.7 ms of bulk backlog stands in front at arrival; flow queuing
	// should get the sparse packet out within a few packet times.
	if sparseLast > 200*sim.Microsecond {
		t.Fatalf("sparse packet delayed to %v behind bulk queue", sparseLast)
	}
}

func TestFQCoDelReleasesDrainedFlows(t *testing.T) {
	q := NewFQCoDel(1<<22, 0, 0, 0)
	h := newAQMHarness(q)
	for flow := FlowID(1); flow <= 50; flow++ {
		h.offer(4, 13*sim.Microsecond, 0, flow)
	}
	if got := q.FlowTableSize(); got != 0 {
		t.Fatalf("flow table holds %d entries after all flows drained, want 0", got)
	}
}

func TestFQCoDelSharesCapacityFairly(t *testing.T) {
	q := NewFQCoDel(1<<22, 0, 0, 0)
	e := sim.NewEngine()
	got := map[FlowID]int{}
	l := NewLink(e, "fq", 1_000_000_000, 5*sim.Microsecond, q, HandlerFunc(func(p *Packet) {
		got[p.Flow]++
	}))
	// Two flows offer identical 2x-overload streams; DRR must serve them
	// near 50/50 even though flow 1 enqueues first at every instant.
	for i := 0; i < 1000; i++ {
		p1 := &Packet{Flow: 1, Dst: 1, WireSize: 1500, DataLen: 1460}
		p2 := &Packet{Flow: 2, Dst: 1, WireSize: 1500, DataLen: 1460}
		at := sim.Time(i) * 12 * sim.Microsecond
		e.At(at, func() { l.HandlePacket(p1) })
		e.At(at, func() { l.HandlePacket(p2) })
	}
	e.Run()
	if got[1] == 0 || got[2] == 0 {
		t.Fatalf("a flow starved: %v", got)
	}
	ratio := float64(got[1]) / float64(got[2])
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("unfair split under identical load: %v (ratio %.2f)", got, ratio)
	}
}

// Alloc-free pins, following the DropTail/DRR pins above: steady-state
// enqueue+dequeue on each new AQM must not touch the heap. The queues are
// driven directly (engine bound by hand) with a standing backlog.

func pinAQMSteadyState(t *testing.T, name string, q Queue) {
	t.Helper()
	if b, ok := q.(EngineBinder); ok {
		b.BindEngine(sim.NewEngine())
	}
	p := &Packet{Flow: 1, WireSize: 1500}
	for i := 0; i < 128; i++ {
		q.Enqueue(p)
	}
	for i := 0; i < 64; i++ {
		q.Dequeue()
	}
	if got := testing.AllocsPerRun(200, func() {
		q.Enqueue(p)
		q.Dequeue()
	}); got != 0 {
		t.Fatalf("%s steady state allocates %.1f objects/op, want 0", name, got)
	}
}

func TestCoDelSteadyStateAllocFree(t *testing.T) {
	pinAQMSteadyState(t, "CoDel", NewCoDel(1<<30, 0, 0))
}

func TestPIESteadyStateAllocFree(t *testing.T) {
	pinAQMSteadyState(t, "PIE", NewPIE(1<<30, 10_000_000_000, 0, 0, 7))
}

func TestFQCoDelSteadyStateAllocFree(t *testing.T) {
	pinAQMSteadyState(t, "FQ-CoDel", NewFQCoDel(1<<30, 0, 0, 0))
}
