package netsim

import (
	"runtime"
	"testing"

	"greenenvy/internal/sim"
)

// These tests pin the steady-state allocation counts of the link packet
// path. Before the pooled-event engine, every packet traversal allocated
// five objects (two closures, two heap events boxed through `any`, and
// queue-slice growth); the rewrite brings both the data-packet and the
// pure-ACK path to zero. If a change makes these fail, it reintroduced
// per-packet garbage on the hottest path in the simulator — fix the change,
// don't bump the pins.

// linkAllocsPerPacket measures steady-state allocations for one packet
// traversing queue → serializer → propagation → delivery.
func linkAllocsPerPacket(t *testing.T, wireSize, dataLen int) float64 {
	t.Helper()
	e := sim.NewEngine()
	delivered := 0
	l := NewLink(e, "pin", 10_000_000_000, 5*sim.Microsecond, NewDropTail(1<<20, 0),
		HandlerFunc(func(p *Packet) { delivered++ }))
	p := &Packet{Flow: 1, Dst: 1, WireSize: wireSize, DataLen: dataLen}
	traverse := func() {
		l.HandlePacket(p)
		e.Run()
	}
	// Warm the event pool and the queue ring past their steady-state
	// sizes before measuring.
	for i := 0; i < 128; i++ {
		traverse()
	}
	avg := testing.AllocsPerRun(200, traverse)
	if delivered == 0 {
		t.Fatal("no packets delivered")
	}
	return avg
}

func TestLinkDataPacketPathAllocFree(t *testing.T) {
	if got := linkAllocsPerPacket(t, 1500, 1460); got != 0 {
		t.Fatalf("data-packet link path allocates %.1f objects/packet, want 0", got)
	}
}

func TestLinkPureAckPathAllocFree(t *testing.T) {
	if got := linkAllocsPerPacket(t, 40, 0); got != 0 {
		t.Fatalf("pure-ACK link path allocates %.1f objects/packet, want 0", got)
	}
}

// TestSwitchPipelinePathAllocFree extends the pin across a store-and-forward
// switch hop with a non-zero pipeline delay (the default dumbbell's
// configuration), exercising the switch's FIFO delay line.
func TestSwitchPipelinePathAllocFree(t *testing.T) {
	e := sim.NewEngine()
	delivered := 0
	sw := NewSwitch(e, "pin", sim.Microsecond)
	sw.Connect(1, HandlerFunc(func(p *Packet) { delivered++ }))
	l := NewLink(e, "pin", 10_000_000_000, 5*sim.Microsecond, NewDropTail(1<<20, 0), sw)
	p := &Packet{Flow: 1, Dst: 1, WireSize: 1500, DataLen: 1460}
	traverse := func() {
		p.hops = 0
		l.HandlePacket(p)
		e.Run()
	}
	for i := 0; i < 128; i++ {
		traverse()
	}
	if got := testing.AllocsPerRun(200, traverse); got != 0 {
		t.Fatalf("link+switch path allocates %.1f objects/packet, want 0", got)
	}
	if delivered == 0 {
		t.Fatal("no packets delivered")
	}
}

// TestSwitchECMPPathAllocFree pins range-route forwarding with four
// equal-cost next hops, the fat-tree's upward path: resolving a flow's port
// by the ECMP hash and passing the packet through the pipeline allocate
// nothing.
func TestSwitchECMPPathAllocFree(t *testing.T) {
	e := sim.NewEngine()
	sw := NewSwitch(e, "ecmp", sim.Microsecond)
	sw.SetECMPSalt(7)
	var counts [4]int
	ports := make([]Handler, len(counts))
	for i := range ports {
		ports[i] = HandlerFunc(func(*Packet) { counts[i]++ })
	}
	sw.ConnectRange(100, 199, ports...)
	p := &Packet{Src: 1, Dst: 150, WireSize: 1500, DataLen: 1460}
	traverse := func() {
		p.Flow++
		p.hops = 0
		sw.HandlePacket(p)
		e.Run()
	}
	for i := 0; i < 128; i++ {
		traverse()
	}
	if got := testing.AllocsPerRun(200, traverse); got != 0 {
		t.Fatalf("ECMP forwarding allocates %.1f objects/packet, want 0", got)
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("ECMP never picked port %d: %v", i, counts)
		}
	}
}

// TestThroughputMonitorObserveAllocFree: counting a delivered segment for a
// flow the monitor already tracks allocates nothing.
func TestThroughputMonitorObserveAllocFree(t *testing.T) {
	m := NewThroughputMonitor(sim.NewEngine(), sim.Millisecond)
	m.Observe(1, 1460)
	if got := testing.AllocsPerRun(200, func() { m.Observe(1, 1460) }); got != 0 {
		t.Fatalf("Observe allocates %.1f objects/call, want 0", got)
	}
}

// TestDropTailSteadyStateAllocFree pins the ring-buffer queue: enqueue plus
// dequeue with a standing backlog must not touch the heap.
func TestDropTailSteadyStateAllocFree(t *testing.T) {
	q := NewDropTail(1<<30, 0)
	p := &Packet{WireSize: 1500}
	for i := 0; i < 64; i++ {
		q.Enqueue(p)
	}
	if got := testing.AllocsPerRun(200, func() {
		q.Enqueue(p)
		q.Dequeue()
	}); got != 0 {
		t.Fatalf("DropTail steady state allocates %.1f objects/op, want 0", got)
	}
}

// TestDRRSteadyStateAllocFree pins the weighted-fair queue the same way.
func TestDRRSteadyStateAllocFree(t *testing.T) {
	q := NewDRR(1<<30, 0)
	p := &Packet{Flow: 1, WireSize: 1500}
	for i := 0; i < 64; i++ {
		q.Enqueue(p)
	}
	if got := testing.AllocsPerRun(200, func() {
		q.Enqueue(p)
		q.Dequeue()
	}); got != 0 {
		t.Fatalf("DRR steady state allocates %.1f objects/op, want 0", got)
	}
}

// TestDRRRotationAllocFree pins the round-robin ring under rotation: 64
// backlogged flows whose quantum is below one packet, so nearly every
// Dequeue rotates several flows to the tail, and flows drain and re-enter
// the ring as their backlog moves. A slice ring popped with [1:] and
// refilled with append slides off its backing array and reallocates about
// once per lap — too rarely for AllocsPerRun's per-op average to see — so
// this pin counts every allocation over a long run.
func TestDRRRotationAllocFree(t *testing.T) {
	const flows = 64
	q := NewDRR(1<<30, 0)
	pkts := make([]*Packet, flows)
	for f := range pkts {
		pkts[f] = &Packet{Flow: FlowID(f), WireSize: 1500}
		q.SetWeight(FlowID(f), 0.0005) // quantum ≈ 524 B: three visits per packet
		for i := 0; i < 2; i++ {
			q.Enqueue(pkts[f])
		}
	}
	rng := sim.NewRNG(1)
	step := func() {
		q.Enqueue(pkts[rng.Intn(flows)])
		q.Dequeue()
	}
	for i := 0; i < 100*flows; i++ {
		step() // size every per-flow packet ring
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < 10_000; i++ {
		step()
	}
	runtime.ReadMemStats(&ms)
	if got := ms.Mallocs - before; got != 0 {
		t.Fatalf("DRR rotation allocated %d objects over 10000 packets, want 0", got)
	}
}

// TestFatTreeBuildAllocs pins what one fabric costs to build. Hosts,
// switches, links, default drop-tail queues, ECMP port lists and range
// tables come from one slab per element type, timers live inside their
// links, every link shares one propagation stage and every switch one
// pipeline stage, each binds its owner's method expression rather than a
// closure, and names are rendered only when asked. So a k=8 tree's 128
// hosts, 80 switches and 768 links cost about 80 allocations, mostly the
// edge switches' exact-route maps. A name string per element cost about
// 1,100; method values instead of method expressions about 3,500; an
// object per element, or a range table re-sorted per route, about 9,500.
func TestFatTreeBuildAllocs(t *testing.T) {
	const limit = 150
	got := testing.AllocsPerRun(5, func() { NewFatTree(sim.NewEngine(), DefaultFatTree(8)) })
	if got > limit {
		t.Fatalf("building a k=8 fat-tree allocates %.0f objects, want at most %d", got, limit)
	}
}

// TestFatTreeBuildBytes pins what one fabric weighs: a k=12 tree's 432
// hosts, 180 switches and 2,592 links take about 920 KB. A propagation
// line and its ring inside every link and a pipeline line inside every
// switch made it 1,265 KB.
func TestFatTreeBuildBytes(t *testing.T) {
	const runs, limitKB = 5, 1050
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i := 0; i < runs; i++ {
		NewFatTree(sim.NewEngine(), DefaultFatTree(12))
	}
	runtime.ReadMemStats(&ms)
	if kb := float64(ms.TotalAlloc-before) / runs / 1024; kb > limitKB {
		t.Fatalf("building a k=12 fat-tree takes %.0f KB, want at most %d KB", kb, limitKB)
	}
}

// TestNewPacketAllocatesByChunk: a pool with an empty free list hands out
// packets from chunks, so a fresh host's first 1,000 packets cost a few
// dozen allocations, not one each.
func TestNewPacketAllocatesByChunk(t *testing.T) {
	const limit = 40
	pkts := make([]*Packet, 1000)
	got := testing.AllocsPerRun(5, func() {
		h := NewHost(0, "h")
		for i := range pkts {
			pkts[i] = h.NewPacket()
		}
	})
	if got > limit {
		t.Fatalf("1000 NewPacket calls on a fresh host allocate %.0f objects, want at most %d", got, limit)
	}
}

// TestNewSACKAllocatesByChunk: SACK arrays come from chunks of sackChunk
// blocks, so a fresh host's first 1,000 four-block arrays cost one
// allocation per chunk (64 in all), not one per ACK. Under -race each chunk
// takes two allocations (127 in all), so the limit allows two per chunk
// plus two for the host and its pool.
func TestNewSACKAllocatesByChunk(t *testing.T) {
	const calls, blocks = 1000, 4
	const limit = 2*((calls*blocks+sackChunk-1)/sackChunk) + 2
	got := testing.AllocsPerRun(5, func() {
		h := NewHost(0, "h")
		for i := 0; i < calls; i++ {
			h.NewSACK(blocks)
		}
	})
	if got > limit {
		t.Fatalf("%d NewSACK(%d) calls on a fresh host allocate %.0f objects, want at most %d", calls, blocks, got, limit)
	}
}

// TestFatTreeFirstPacketPerQueueAllocs: a fabric's default drop-tails carve
// their first rings from chunks of ringChunk, so the first packet into
// each of a k=8 tree's 128 host downlinks costs 2 allocations in all, not
// one per queue.
func TestFatTreeFirstPacketPerQueueAllocs(t *testing.T) {
	const limit = 3
	ft := NewFatTree(sim.NewEngine(), DefaultFatTree(8))
	p := &Packet{WireSize: 1500}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for h := range ft.Hosts {
		ft.HostDownlink(NodeID(h)).Queue().Enqueue(p)
	}
	runtime.ReadMemStats(&ms)
	got := ms.Mallocs - before
	t.Logf("first packet into each of %d host downlinks: %d allocations", len(ft.Hosts), got)
	if got > limit {
		t.Fatalf("the first packet into each of %d host downlinks allocates %d objects, want at most %d",
			len(ft.Hosts), got, limit)
	}
}
