package netsim

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"greenenvy/internal/sim"
)

func TestSwitchRangeRoutesNarrowestWins(t *testing.T) {
	e := sim.NewEngine()
	sw := NewSwitch(e, "sw", 0)
	var via []string
	port := func(name string) Handler {
		return HandlerFunc(func(p *Packet) { via = append(via, name) })
	}
	// Installation order deliberately widest-first: precedence must come
	// from range width, not insertion order.
	sw.ConnectRange(0, 99, port("wide"))
	sw.ConnectRange(10, 19, port("narrow"))
	sw.Connect(12, port("exact"))

	for _, dst := range []NodeID{50, 15, 12} {
		sw.HandlePacket(&Packet{Dst: dst, WireSize: 100})
	}
	e.Run()
	if want := []string{"wide", "narrow", "exact"}; fmt.Sprint(via) != fmt.Sprint(want) {
		t.Fatalf("routes taken = %v, want %v", via, want)
	}
}

// routeTag is a comparable port, so a test can tell routes apart by the
// call that installed them.
type routeTag int

func (routeTag) HandlePacket(*Packet) {}

// TestConnectRangeKeepsStableOrder: inserting each route at its place must
// build the table a stable sort of the same calls builds — narrowest first,
// then by lower bound, and routes with equal (width, lo) in call order —
// whatever order the calls come in.
func TestConnectRangeKeepsStableOrder(t *testing.T) {
	calls := []rangeRoute{
		{lo: 0, hi: 1023}, {lo: 0, hi: 99}, {lo: 10, hi: 19}, {lo: 0, hi: 9},
		{lo: 10, hi: 19}, {lo: 50, hi: 59}, {lo: 0, hi: 0}, {lo: 5, hi: 5},
		{lo: 0, hi: 99}, {lo: 20, hi: 119}, {lo: 0, hi: 9}, {lo: 7, hi: 7},
		{lo: 10, hi: 19}, {lo: 100, hi: 199},
	}
	byWidthThenLo := func(a, b rangeRoute) int {
		if c := cmp.Compare(a.hi-a.lo, b.hi-b.lo); c != 0 {
			return c
		}
		return cmp.Compare(a.lo, b.lo)
	}
	rng := sim.NewRNG(1)
	for trial := 0; trial < 200; trial++ {
		for i := len(calls) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			calls[i], calls[j] = calls[j], calls[i]
		}
		sw := NewSwitch(sim.NewEngine(), "sw", 0)
		want := make([]rangeRoute, len(calls))
		for i, c := range calls {
			c.ports = []Handler{routeTag(i)}
			sw.ConnectRange(c.lo, c.hi, c.ports...)
			want[i] = c
		}
		slices.SortStableFunc(want, byWidthThenLo)
		if len(sw.ranges) != len(want) {
			t.Fatalf("trial %d: table holds %d routes, want %d", trial, len(sw.ranges), len(want))
		}
		for i, r := range sw.ranges {
			if r.lo != want[i].lo || r.hi != want[i].hi || r.ports[0] != want[i].ports[0] {
				t.Fatalf("trial %d: route %d is [%d, %d] from call %v, want [%d, %d] from call %v",
					trial, i, r.lo, r.hi, r.ports[0], want[i].lo, want[i].hi, want[i].ports[0])
			}
		}
	}
}

func TestSwitchConnectRangeValidation(t *testing.T) {
	e := sim.NewEngine()
	sw := NewSwitch(e, "sw", 0)
	for name, f := range map[string]func(){
		"empty range": func() { sw.ConnectRange(5, 4, HandlerFunc(func(*Packet) {})) },
		"no ports":    func() { sw.ConnectRange(0, 9) },
		"zero TTL":    func() { sw.SetTTL(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestECMPSelectionSeedStable pins the property the same-seed-same-bytes
// contract needs from ECMP: uplink choice is a pure function of
// (salt, flow, src, dst), so two switches configured alike agree packet by
// packet, and repeated lookups never flap.
func TestECMPSelectionSeedStable(t *testing.T) {
	e := sim.NewEngine()
	build := func(salt uint64) (*Switch, *[]int) {
		sw := NewSwitch(e, "sw", 0)
		sw.SetECMPSalt(salt)
		var picks []int
		ports := make([]Handler, 4)
		for i := range ports {
			i := i
			ports[i] = HandlerFunc(func(p *Packet) { picks = append(picks, i) })
		}
		sw.ConnectRange(0, 1023, ports...)
		return sw, &picks
	}
	a, pa := build(42)
	b, pb := build(42)
	c, pc := build(43)
	for flow := FlowID(1); flow <= 64; flow++ {
		p := Packet{Flow: flow, Src: NodeID(flow % 7), Dst: NodeID(100 + flow), WireSize: 100}
		for _, sw := range []*Switch{a, b, c} {
			cp := p
			sw.HandlePacket(&cp)
			cp2 := p
			sw.HandlePacket(&cp2) // same tuple again: must not flap
		}
	}
	e.Run()
	if fmt.Sprint(*pa) != fmt.Sprint(*pb) {
		t.Fatal("same salt, same tuples: switches disagreed on uplink choice")
	}
	for i := 0; i+1 < len(*pa); i += 2 {
		if (*pa)[i] != (*pa)[i+1] {
			t.Fatalf("tuple %d flapped between ports %d and %d", i/2, (*pa)[i], (*pa)[i+1])
		}
	}
	if fmt.Sprint(*pa) == fmt.Sprint(*pc) {
		t.Fatal("different salts produced identical spreading; salt is not mixed in")
	}
}

// TestECMPSpreadIsEven hashes a large flow population across 4 uplinks and
// requires every uplink to carry within 30% of the fair share — the even
// spreading a datacenter fabric relies on.
func TestECMPSpreadIsEven(t *testing.T) {
	const flows, ports = 4096, 4
	counts := make([]int, ports)
	for f := 0; f < flows; f++ {
		counts[ecmpIndex(7, FlowID(f), NodeID(f%64), NodeID(1000+f%128), ports)]++
	}
	fair := flows / ports
	for i, c := range counts {
		if c < fair*7/10 || c > fair*13/10 {
			t.Fatalf("port %d carries %d of %d flows (fair share %d); spread = %v", i, c, flows, fair, counts)
		}
	}
}

// TestRoutingLoopPanicHasContext wires a switch to forward a range back to
// itself and checks the TTL panic names the switch and the flow tuple — the
// debuggable diagnostic the satellite bugfix demands.
func TestRoutingLoopPanicHasContext(t *testing.T) {
	e := sim.NewEngine()
	sw := NewSwitch(e, "loopy", 0)
	sw.SetTTL(3)
	sw.ConnectRange(0, 9, sw) // deliberate loop
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("routing loop did not panic")
		}
		msg := fmt.Sprint(r)
		for _, want := range []string{`"loopy"`, "flow=7", "src=2", "dst=5", "TTL 3"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q missing %q", msg, want)
			}
		}
	}()
	sw.HandlePacket(&Packet{Flow: 7, Src: 2, Dst: 5, WireSize: 100})
}

// TestDRRReleaseReclaimsFlowState covers the per-flow leak fix: a churn of
// 1000 sequential flows through one DRR queue must hold the flow table at
// its steady-state size, draining backlogged flows before reclaiming them.
func TestDRRReleaseReclaimsFlowState(t *testing.T) {
	q := NewDRR(0, 0)
	maxTable := 0
	for f := FlowID(1); f <= 1000; f++ {
		q.SetWeight(f, 0.5)
		q.Enqueue(&Packet{Flow: f, WireSize: 1500})
		q.Enqueue(&Packet{Flow: f, WireSize: 1500})
		if q.Dequeue() == nil {
			t.Fatalf("flow %d: no packet scheduled", f)
		}
		// Release with one packet still queued: the flow must survive
		// until its backlog drains, then vanish.
		q.Release(f)
		if q.FlowTableSize() > maxTable {
			maxTable = q.FlowTableSize()
		}
		if p := q.Dequeue(); p == nil || p.Flow != f {
			t.Fatalf("flow %d: backlog lost after Release", f)
		}
	}
	if q.FlowTableSize() != 0 {
		t.Fatalf("flow table holds %d flows after churn, want 0", q.FlowTableSize())
	}
	if maxTable > 1 {
		t.Fatalf("flow table peaked at %d during sequential churn, want 1", maxTable)
	}
	// Idle release: no backlog, reclaimed immediately.
	q.SetWeight(2000, 1)
	if q.FlowTableSize() != 1 {
		t.Fatalf("table = %d after SetWeight", q.FlowTableSize())
	}
	q.Release(2000)
	q.Release(2000) // releasing an unknown flow is a no-op
	if q.FlowTableSize() != 0 {
		t.Fatalf("idle flow not reclaimed: table = %d", q.FlowTableSize())
	}
}
