package netsim

import (
	"fmt"
	"strconv"

	"greenenvy/internal/sim"
)

// This file builds the k-ary fat-tree (Al-Fares et al., SIGCOMM 2008) the
// ROADMAP's datacenter-scale experiments run on: k pods of k/2 edge and k/2
// aggregation switches, (k/2)² core switches, and k³/4 hosts. Routing is
// the switch's table machinery — exact routes for a rack's own hosts, range
// routes for pods, and ECMP over the equal-cost uplinks — so the topology
// is wired entirely from the existing Switch/Link/Host primitives.

// PortTier classifies a fat-tree port by its tier and direction.
type PortTier int

const (
	// TierHostUp is the host's NIC toward its edge switch.
	TierHostUp PortTier = iota
	// TierHostDown is the edge switch port toward one host (the incast
	// bottleneck in fan-in experiments).
	TierHostDown
	// TierEdgeUp is an edge switch uplink toward one aggregation switch.
	TierEdgeUp
	// TierAggDown is an aggregation switch port toward one edge switch.
	TierAggDown
	// TierAggUp is an aggregation switch uplink toward one core switch.
	TierAggUp
	// TierCoreDown is a core switch port toward one pod (the shared
	// bottleneck in cross-rack experiments).
	TierCoreDown
)

// String names the tier for link names and diagnostics.
func (t PortTier) String() string {
	switch t {
	case TierHostUp:
		return "host-up"
	case TierHostDown:
		return "host-down"
	case TierEdgeUp:
		return "edge-up"
	case TierAggDown:
		return "agg-down"
	case TierAggUp:
		return "agg-up"
	case TierCoreDown:
		return "core-down"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// FatTreePort identifies one port while the tree is being wired. The
// queue-discipline hook receives it so experiments can install a special
// queue (a DRR, a tiny buffer) on exactly the ports they study.
type FatTreePort struct {
	// Tier is the port's tier and direction.
	Tier PortTier
	// Pod is the pod the port's switch belongs to; for TierCoreDown it is
	// the destination pod; -1 when not applicable.
	Pod int
	// Switch is the owning switch's index within its tier (edge/agg:
	// within the pod; core: global).
	Switch int
	// Host is the attached host for TierHostUp/TierHostDown; -1 otherwise.
	Host NodeID
	// Port is the ordinal among the switch's ports of this tier (the
	// uplink number j, the downstream edge index, ...).
	Port int
}

// FatTreeConfig describes a k-ary fat-tree.
type FatTreeConfig struct {
	// K is the tree arity: k pods, k/2 edge + k/2 aggregation switches per
	// pod, (k/2)² cores, k³/4 hosts. Must be even and >= 2.
	K int
	// HostBps is the rate of host↔edge links.
	HostBps int64
	// EdgeAggBps is the rate of edge↔aggregation links.
	EdgeAggBps int64
	// AggCoreBps is the rate of aggregation↔core links.
	AggCoreBps int64
	// LinkDelay is the one-way propagation delay of every link.
	LinkDelay sim.Duration
	// SwitchDelay is the pipeline latency of every switch.
	SwitchDelay sim.Duration
	// BufferBytes sizes the default drop-tail queue on switch egress ports
	// (0 picks 1 MiB). Host NIC queues are unbounded, as on the dumbbell.
	BufferBytes int
	// MarkBytes is the DCTCP ECN threshold for default switch queues
	// (0 = no marking).
	MarkBytes int
	// ECMPSeed seeds the per-switch flow-hash salts. Same seed, same
	// spreading — part of the same-seed-same-bytes contract.
	ECMPSeed uint64
	// NewQueue, when non-nil, supplies the queue discipline per port;
	// returning nil falls back to the default for that port.
	NewQueue func(FatTreePort) Queue
}

// DefaultFatTree returns a k-ary tree with 10 Gb/s links at every tier,
// microsecond-scale datacenter latencies, and 1 MiB port buffers — the §3
// testbed's parameters extended to a fabric.
func DefaultFatTree(k int) FatTreeConfig {
	return FatTreeConfig{
		K:           k,
		HostBps:     10_000_000_000,
		EdgeAggBps:  10_000_000_000,
		AggCoreBps:  10_000_000_000,
		LinkDelay:   5 * sim.Microsecond,
		SwitchDelay: sim.Microsecond,
		BufferBytes: 1 << 20,
	}
}

// FatTree is an assembled fat-tree topology. Hosts are numbered 0..k³/4-1
// in pod-major order: host h lives in pod h/(k²/4), on edge switch
// (h mod k²/4)/(k/2).
type FatTree struct {
	Config FatTreeConfig

	// Hosts, indexed by NodeID.
	Hosts []*Host
	// Edges and Aggs are flattened per pod: index pod*(k/2)+i.
	Edges []*Switch
	Aggs  []*Switch
	// Cores are the (k/2)² core switches; core c uplinks from agg c/(k/2)
	// of every pod.
	Cores []*Switch

	// hostDown[h] is the edge→host link delivering to host h.
	hostDown []*Link
	// rings supplies the first packet ring of every default drop-tail.
	rings ringStore[*Packet]
}

// switchPlace locates a fat-tree switch, so that its name is rendered only
// when asked: its tier, its pod (edge and agg tiers), and its index within
// the pod or, for a core, within the core tier.
type switchPlace struct {
	tier     switchTier
	pod, idx int32
}

// switchTier is a fat-tree switch's tier; the zero value marks a switch
// outside any fat-tree.
type switchTier uint8

const (
	edgeTier switchTier = iota + 1
	aggTier
	coreTier
)

// String renders the switch's name: edge-p<pod>-e<i>, agg-p<pod>-a<i> or
// core-<c>.
func (p switchPlace) String() string {
	pod, i := strconv.Itoa(int(p.pod)), strconv.Itoa(int(p.idx))
	switch p.tier {
	case edgeTier:
		return "edge-p" + pod + "-e" + i
	case aggTier:
		return "agg-p" + pod + "-a" + i
	}
	return "core-" + i
}

// NewFatTree wires up the topology described by cfg on engine. Switches
// are created in a fixed order (edges and aggs pod by pod, then cores):
// ECMP salts are keyed by creation ordinal, so that order is part of the
// same-seed-same-bytes contract.
func NewFatTree(engine *sim.Engine, cfg FatTreeConfig) *FatTree {
	if cfg.K < 2 || cfg.K%2 != 0 {
		panic(fmt.Sprintf("netsim: fat-tree arity k=%d must be even and >= 2", cfg.K))
	}
	if cfg.HostBps <= 0 || cfg.EdgeAggBps <= 0 || cfg.AggCoreBps <= 0 {
		panic("netsim: fat-tree link rates must be positive")
	}
	if cfg.BufferBytes == 0 {
		cfg.BufferBytes = 1 << 20
	}

	k := cfg.K
	half := k / 2
	hostsPerPod := half * half
	numHosts := k * hostsPerPod

	ft := &FatTree{
		Config:   cfg,
		Hosts:    make([]*Host, numHosts),
		Edges:    make([]*Switch, k*half),
		Aggs:     make([]*Switch, k*half),
		Cores:    make([]*Switch, half*half),
		hostDown: make([]*Link, numHosts),
	}

	// Every element comes from a slab sized by the tree's exact counts:
	// each host has an up and a down link, and each of the four switch
	// tiers wires k·(k/2)² more. Edge and agg uplinks are ECMP port lists
	// of k/2; agg and core downlinks are single-port routes. An edge holds
	// one range route, an agg one per pod edge plus its uplinks, a core
	// one per pod.
	numLinks := 6 * numHosts
	hosts := make(slab[Host], 0, numHosts)
	switches := make(slab[Switch], 0, len(ft.Edges)+len(ft.Aggs)+len(ft.Cores))
	links := make(slab[Link], 0, numLinks)
	ports := make(slab[Handler], 0, 4*numHosts)
	routes := make(slab[rangeRoute], 0, len(ft.Edges)+len(ft.Aggs)*(half+1)+len(ft.Cores)*k)
	var drops slab[DropTail]

	queueFor := func(port FatTreePort) Queue {
		if cfg.NewQueue != nil {
			if q := cfg.NewQueue(port); q != nil {
				return q
			}
		}
		if drops == nil {
			// At most one default queue per link not yet built.
			drops = make(slab[DropTail], 0, cap(links)-len(links))
		}
		q := drops.one()
		if port.Tier == TierHostUp {
			*q = DropTail{}
		} else {
			*q = DropTail{CapBytes: cfg.BufferBytes, MarkBytes: cfg.MarkBytes}
		}
		q.pkts.store = &ft.rings
		return q
	}
	// Every link shares one propagation stage and every switch one
	// pipeline stage: the same stage when the two delays are equal.
	stg := stages{eng: engine}
	wire, pipe := stg.of(cfg.LinkDelay), stg.pipeline(cfg.SwitchDelay)
	newLink := func(from named, rateBps int64, q Queue, dst Handler) *Link {
		l := links.one()
		l.from = from
		l.init(engine, rateBps, wire, q, dst)
		return l
	}

	// Per-switch ECMP salts: a Mix64 chain over the seed and a stable
	// switch ordinal, so different switches decorrelate the same flow
	// population while staying a pure function of the seed.
	ordinal := uint64(0)
	salt := func() uint64 {
		ordinal++
		return sim.Mix64(cfg.ECMPSeed ^ ordinal*0x9E3779B97F4A7C15)
	}
	// The longest path crosses edge, agg, core, agg, edge: 5 switch hops.
	// One hop of margin turns a wiring mistake into a prompt diagnostic.
	const ttl = 6
	newSwitch := func(place switchPlace, numRoutes int) *Switch {
		s := switches.one()
		s.place = place
		s.init(pipe)
		s.SetTTL(ttl)
		s.SetECMPSalt(salt())
		s.ranges = routes.next(numRoutes)[:0]
		return s
	}

	for p := 0; p < k; p++ {
		for i := 0; i < half; i++ {
			ft.Edges[p*half+i] = newSwitch(switchPlace{tier: edgeTier, pod: int32(p), idx: int32(i)}, 1)
			ft.Aggs[p*half+i] = newSwitch(switchPlace{tier: aggTier, pod: int32(p), idx: int32(i)}, half+1)
		}
	}
	for c := range ft.Cores {
		ft.Cores[c] = newSwitch(switchPlace{tier: coreTier, idx: int32(c)}, k)
	}

	// Hosts and the host↔edge tier. Every host shares one flow table and
	// one packet pool.
	flows, pool := make(flowTable), new(packetPool)
	for h := 0; h < numHosts; h++ {
		p := h / hostsPerPod
		e := (h % hostsPerPod) / half
		edge := ft.Edges[p*half+e]
		host := hosts.one()
		host.init(NodeID(h), "", flows, pool)
		ft.Hosts[h] = host

		up := FatTreePort{Tier: TierHostUp, Pod: p, Switch: e, Host: NodeID(h), Port: h % half}
		host.SetEgress(newLink(host, cfg.HostBps, queueFor(up), edge))

		down := FatTreePort{Tier: TierHostDown, Pod: p, Switch: e, Host: NodeID(h), Port: h % half}
		l := newLink(edge, cfg.HostBps, queueFor(down), host)
		ft.hostDown[h] = l
		edge.Connect(NodeID(h), l)
	}

	// Edge uplinks: every edge reaches each of its pod's aggs; all other
	// destinations ECMP across them (the exact host routes above win for
	// the rack's own hosts).
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			edge := ft.Edges[p*half+e]
			ups := ports.next(half)
			for a := 0; a < half; a++ {
				agg := ft.Aggs[p*half+a]
				port := FatTreePort{Tier: TierEdgeUp, Pod: p, Switch: e, Host: -1, Port: a}
				ups[a] = newLink(edge, cfg.EdgeAggBps, queueFor(port), agg)
			}
			edge.ConnectRange(0, NodeID(numHosts-1), ups...)
		}
	}

	// Agg tier: per-edge host ranges downward; everything else ECMPs
	// across the agg's core uplinks (the narrower pod-local ranges win).
	for p := 0; p < k; p++ {
		for a := 0; a < half; a++ {
			agg := ft.Aggs[p*half+a]
			for e := 0; e < half; e++ {
				edge := ft.Edges[p*half+e]
				lo := NodeID(p*hostsPerPod + e*half)
				port := FatTreePort{Tier: TierAggDown, Pod: p, Switch: a, Host: -1, Port: e}
				down := ports.next(1)
				down[0] = newLink(agg, cfg.EdgeAggBps, queueFor(port), edge)
				agg.ConnectRange(lo, lo+NodeID(half-1), down...)
			}
			ups := ports.next(half)
			for j := 0; j < half; j++ {
				c := a*half + j
				core := ft.Cores[c]
				port := FatTreePort{Tier: TierAggUp, Pod: p, Switch: a, Host: -1, Port: j}
				ups[j] = newLink(agg, cfg.AggCoreBps, queueFor(port), core)
			}
			agg.ConnectRange(0, NodeID(numHosts-1), ups...)
		}
	}

	// Core tier: one downlink per pod, to the agg this core belongs to.
	// No default route — an address outside the tree is a counted drop.
	for c, core := range ft.Cores {
		a := c / half
		for p := 0; p < k; p++ {
			agg := ft.Aggs[p*half+a]
			port := FatTreePort{Tier: TierCoreDown, Pod: p, Switch: c, Host: -1, Port: p}
			route := ports.next(1)
			route[0] = newLink(core, cfg.AggCoreBps, queueFor(port), agg)
			core.ConnectRange(NodeID(p*hostsPerPod), NodeID((p+1)*hostsPerPod-1), route...)
		}
	}
	return ft
}

// NumHosts returns k³/4.
func (ft *FatTree) NumHosts() int { return len(ft.Hosts) }

// HostDownlink returns the edge→host link delivering to h: the port whose
// queue an incast converges on.
func (ft *FatTree) HostDownlink(h NodeID) *Link { return ft.hostDown[h] }

// Switches returns every switch in the fabric (edges, aggs, cores).
func (ft *FatTree) Switches() []*Switch {
	out := make([]*Switch, 0, len(ft.Edges)+len(ft.Aggs)+len(ft.Cores))
	out = append(out, ft.Edges...)
	out = append(out, ft.Aggs...)
	return append(out, ft.Cores...)
}

// PathFor returns the links a packet of the given flow tuple traverses from
// src to dst, resolved through the same tables and ECMP hashes forwarding
// uses, without injecting traffic. Experiments use it to find flows that
// collide on a particular core link. It returns nil if the walk leaves the
// routed fabric.
func (ft *FatTree) PathFor(flow FlowID, src, dst NodeID) []*Link {
	if int(src) >= len(ft.Hosts) {
		return nil
	}
	l, ok := ft.Hosts[src].egress.(*Link)
	if !ok {
		return nil
	}
	path := []*Link{l}
	for hops := 0; hops < 8; hops++ {
		sw, ok := l.Dst().(*Switch)
		if !ok {
			return path // reached a host
		}
		out := sw.RouteFor(flow, src, dst)
		if out == nil {
			return nil
		}
		if l, ok = out.(*Link); !ok {
			return nil
		}
		path = append(path, l)
	}
	return nil
}

// FatTreeArityFor returns the smallest even arity k >= 4 whose k³/4 hosts
// fit n senders plus one receiver — the fabric-sizing rule the incast
// experiments share.
func FatTreeArityFor(n int) int {
	for k := 4; ; k += 2 {
		if k*k*k/4 >= n+1 {
			return k
		}
	}
}

// IncastHosts picks n sender hosts spread round-robin across the tree's
// edge switches (racks), skipping the receiver at host 0: host
// h = edge*(k/2) + slot, filling slot 0 on every rack before slot 1. The
// spread maximizes cross-rack fan-in toward the receiver's edge downlink.
func IncastHosts(k, n int) []NodeID {
	half := k / 2
	numEdges := k * k / 2
	hosts := make([]NodeID, 0, n)
	for slot := 0; slot < half && len(hosts) < n; slot++ {
		for e := 0; e < numEdges && len(hosts) < n; e++ {
			h := NodeID(e*half + slot)
			if h == 0 {
				continue // the receiver's slot
			}
			hosts = append(hosts, h)
		}
	}
	return hosts
}
