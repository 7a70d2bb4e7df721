package netsim

import (
	"testing"

	"greenenvy/internal/sim"
)

func TestFatTreeTopologyCounts(t *testing.T) {
	e := sim.NewEngine()
	for _, k := range []int{2, 4, 8} {
		ft := NewFatTree(e, DefaultFatTree(k))
		if got, want := ft.NumHosts(), k*k*k/4; got != want {
			t.Errorf("k=%d: %d hosts, want %d", k, got, want)
		}
		if got, want := len(ft.Edges), k*k/2; got != want {
			t.Errorf("k=%d: %d edges, want %d", k, got, want)
		}
		if got, want := len(ft.Aggs), k*k/2; got != want {
			t.Errorf("k=%d: %d aggs, want %d", k, got, want)
		}
		if got, want := len(ft.Cores), k*k/4; got != want {
			t.Errorf("k=%d: %d cores, want %d", k, got, want)
		}
		if got, want := len(ft.Switches()), k*k+k*k/4; got != want {
			t.Errorf("k=%d: Switches() = %d, want %d", k, got, want)
		}
		edge := ft.Hosts[ft.NumHosts()-1].egress.(*Link).Dst().(*Switch)
		if edge.place != (switchPlace{tier: edgeTier, pod: int32(k - 1), idx: int32(k/2 - 1)}) {
			t.Errorf("k=%d: last host hangs off %s, not the last pod's last edge", k, edge.Name())
		}
	}
}

func TestFatTreeValidation(t *testing.T) {
	e := sim.NewEngine()
	for _, cfg := range []FatTreeConfig{
		{K: 3, HostBps: 1, EdgeAggBps: 1, AggCoreBps: 1},
		{K: 0, HostBps: 1, EdgeAggBps: 1, AggCoreBps: 1},
		{K: 4, HostBps: 0, EdgeAggBps: 1, AggCoreBps: 1},
		{K: 4, HostBps: 1, EdgeAggBps: 1, AggCoreBps: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			NewFatTree(e, cfg)
		}()
	}
}

// TestFatTreeFullReachability delivers one packet between every ordered
// host pair of a k=4 tree: all 240 pairs must arrive, with zero no-route
// drops anywhere in the fabric.
func TestFatTreeFullReachability(t *testing.T) {
	e := sim.NewEngine()
	ft := NewFatTree(e, DefaultFatTree(4))
	n := ft.NumHosts()
	got := 0
	flow := FlowID(0)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			flow++
			ft.Hosts[dst].Attach(flow, HandlerFunc(func(p *Packet) { got++ }))
			ft.Hosts[src].Send(&Packet{Flow: flow, Dst: NodeID(dst), WireSize: 1500})
		}
	}
	e.Run()
	if want := n * (n - 1); got != want {
		t.Fatalf("delivered %d of %d pairs", got, want)
	}
	for _, sw := range ft.Switches() {
		if sw.DroppedNoRoute != 0 {
			t.Fatalf("switch %s dropped %d packets with no route", sw.Name(), sw.DroppedNoRoute)
		}
	}
}

// TestFatTreeTiming pins the hop count via arrival time: an inter-pod
// packet crosses 6 links and 5 switch pipelines, an intra-rack packet 2
// links and 1 pipeline.
func TestFatTreeTiming(t *testing.T) {
	e := sim.NewEngine()
	ft := NewFatTree(e, DefaultFatTree(4))
	// 9000 B at 10 Gb/s serializes in 7.2 µs; each link adds 5 µs
	// propagation and each switch 1 µs of pipeline.
	perLink := sim.Time(7200 + 5000)
	var interAt, intraAt sim.Time
	ft.Hosts[12].Attach(1, HandlerFunc(func(p *Packet) { interAt = e.Now() }))
	ft.Hosts[1].Attach(2, HandlerFunc(func(p *Packet) { intraAt = e.Now() }))
	ft.Hosts[0].Send(&Packet{Flow: 1, Dst: 12, WireSize: 9000})
	e.Run()
	ft.Hosts[0].Send(&Packet{Flow: 2, Dst: 1, WireSize: 9000})
	e.Run()
	if want := 6*perLink + 5*1000; interAt != want {
		t.Fatalf("inter-pod delivery at %d, want %d (6 links, 5 switches)", interAt, want)
	}
	if want := interAt + 2*perLink + 1*1000; intraAt != want {
		t.Fatalf("intra-rack delivery at %d, want %d (2 links, 1 switch)", intraAt, want)
	}
}

// TestFatTreePathForMatchesForwarding checks the pure path walk against the
// links a real packet actually crosses, for flows spread across many ECMP
// choices.
func TestFatTreePathForMatchesForwarding(t *testing.T) {
	e := sim.NewEngine()
	cfg := DefaultFatTree(4)
	cfg.ECMPSeed = 99
	ft := NewFatTree(e, cfg)
	for flow := FlowID(1); flow <= 32; flow++ {
		src, dst := NodeID(flow%4), NodeID(8+flow%8)
		if src == dst {
			continue
		}
		path := ft.PathFor(flow, src, dst)
		const hostsPerPod = 4 // (k/2)² at k=4
		wantLinks := 6
		if src/hostsPerPod == dst/hostsPerPod {
			wantLinks = 4
		}
		if len(path) != wantLinks {
			t.Fatalf("flow %d: path has %d links, want %d", flow, len(path), wantLinks)
		}
		before := make([]uint64, len(path))
		for i, l := range path {
			before[i] = l.TxPackets
		}
		delivered := false
		ft.Hosts[dst].Attach(flow, HandlerFunc(func(p *Packet) { delivered = true }))
		ft.Hosts[src].Send(&Packet{Flow: flow, Dst: dst, WireSize: 1500})
		e.Run()
		if !delivered {
			t.Fatalf("flow %d: packet not delivered", flow)
		}
		for i, l := range path {
			if l.TxPackets != before[i]+1 {
				t.Fatalf("flow %d: predicted link %s did not carry the packet", flow, l.Name())
			}
		}
		ft.Hosts[dst].Detach(flow)
	}
}

// TestFatTreeUnroutableAddressDrops sends to an address outside the tree:
// the packet must die as a counted drop at the first switch that runs out
// of routes, not as a panic.
func TestFatTreeUnroutableAddressDrops(t *testing.T) {
	e := sim.NewEngine()
	ft := NewFatTree(e, DefaultFatTree(4))
	ft.Hosts[0].Send(&Packet{Flow: 1, Dst: NodeID(ft.NumHosts() + 5), WireSize: 1500})
	e.Run()
	total := uint64(0)
	for _, sw := range ft.Switches() {
		total += sw.DroppedNoRoute
	}
	if total != 1 {
		t.Fatalf("no-route drops = %d, want 1", total)
	}
}

// TestFatTreeCustomQueue installs a DRR on exactly one host-down port via
// the NewQueue hook and checks it lands where asked.
func TestFatTreeCustomQueue(t *testing.T) {
	e := sim.NewEngine()
	cfg := DefaultFatTree(4)
	want := NodeID(3)
	cfg.NewQueue = func(p FatTreePort) Queue {
		if p.Tier == TierHostDown && p.Host == want {
			return NewDRR(1<<20, 0)
		}
		return nil
	}
	ft := NewFatTree(e, cfg)
	if _, ok := ft.HostDownlink(want).Queue().(*DRR); !ok {
		t.Fatal("host 3 downlink does not use the custom DRR")
	}
	if _, ok := ft.HostDownlink(0).Queue().(*DRR); ok {
		t.Fatal("default port unexpectedly got the custom queue")
	}
}
