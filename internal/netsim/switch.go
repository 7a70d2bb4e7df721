package netsim

import (
	"fmt"
	"slices"
	"strconv"

	"greenenvy/internal/sim"
)

// Switch is an output-queued store-and-forward switch, the role the Intel
// Tofino plays in the paper's testbed. Forwarding is table-driven: exact
// per-node routes (the dumbbell's one-port-per-host wiring) plus range
// routes over contiguous NodeID blocks (a fat-tree pod or rack), where a
// range route may carry several equal-cost next hops resolved by a
// deterministic ECMP hash. The switch itself adds only a small fixed
// pipeline latency.
type Switch struct {
	// name is the name NewSwitch was given. A fat-tree switch has none:
	// place renders it (see Name).
	name  string
	place switchPlace

	// exact maps a destination node to its output port; it wins over any
	// range route (a /32 in longest-prefix terms). It is made by the first
	// Connect: fabric cores and aggregations never hold an exact route.
	exact map[NodeID]Handler
	// ranges holds interval routes sorted by width then lower bound, so a
	// linear scan returns the narrowest covering range first — the
	// longest-prefix-match rule expressed over [lo, hi] blocks. Fat-tree
	// tables hold a handful of entries, so the scan beats tree structures.
	ranges []rangeRoute
	// maxHops is the TTL: forwarding a packet beyond this many hops is a
	// routing loop. Topology builders derive it from the network diameter
	// via SetTTL; the default is generous for hand-wired topologies.
	maxHops int
	// ecmpSalt seeds the flow-tuple hash that picks among equal-cost next
	// hops. Builders derive it per switch from the topology's ECMP seed so
	// different switches spread the same flow population differently.
	ecmpSalt uint64
	// pipe is the forwarding pipeline, a stage shared with every link and
	// switch of the topology that has its latency; nil when the switch
	// forwards at once.
	pipe *stage
	// RxPackets counts packets received for forwarding.
	RxPackets uint64
	// DroppedNoRoute counts packets discarded because no route matched the
	// destination. A misconfigured table degrades to counted drops visible
	// in traces instead of crashing the sweep process.
	DroppedNoRoute uint64
	// LastNoRoute records the most recent no-route drop for diagnostics.
	// Fields rather than a formatted string: recording must not allocate
	// on the forwarding hot path.
	LastNoRoute NoRouteInfo
}

// NoRouteInfo identifies the packet behind a no-route drop.
type NoRouteInfo struct {
	Flow     FlowID
	Src, Dst NodeID
}

// rangeRoute forwards destinations in [lo, hi] (inclusive) to one of a set
// of equal-cost ports.
type rangeRoute struct {
	lo, hi NodeID
	ports  []Handler
}

// NewSwitch creates an empty switch with the legacy 32-hop TTL, on a
// pipeline stage of its own. A pipeline delay of zero or less forwards at
// once.
func NewSwitch(engine *sim.Engine, name string, pipelineDelay sim.Duration) *Switch {
	s := &Switch{name: name}
	s.init((&stages{eng: engine}).pipeline(pipelineDelay))
	return s
}

// init builds the switch in place on the given pipeline stage (nil to
// forward at once), for NewSwitch and for topology builders that take
// their switches from a slab. s must be zero but for its name or place.
func (s *Switch) init(pipe *stage) {
	s.pipe, s.maxHops = pipe, 32
}

// Name returns the switch's name: the one NewSwitch was given, or a
// fat-tree switch's place in the tree ("edge-p0-e1", "agg-p0-a1",
// "core-3"), rendered on each call.
func (s *Switch) Name() string {
	if s.place.tier == 0 {
		return s.name
	}
	return s.place.String()
}

// PipelineDelay returns the forwarding latency, fixed when the switch is
// built: the switch shares its stage with every element of its topology
// that has that latency.
func (s *Switch) PipelineDelay() sim.Duration {
	if s.pipe == nil {
		return 0
	}
	return s.pipe.delay
}

// Connect installs the exact-match output port used to reach dst. Typically
// out is a *Link whose far end is the destination host. Exact routes win
// over any range route.
func (s *Switch) Connect(dst NodeID, out Handler) {
	if s.exact == nil {
		s.exact = make(map[NodeID]Handler)
	}
	s.exact[dst] = out
}

// ConnectRange installs a route for every destination in [lo, hi]
// (inclusive). With several ports the route is equal-cost: each flow is
// pinned to one port by a deterministic hash of (salt, flow, src, dst), so
// a flow's packets never reorder across paths and the same seed yields the
// same spreading for any worker count. Narrower ranges win over wider ones;
// exact routes win over all ranges. The switch keeps ports as given.
func (s *Switch) ConnectRange(lo, hi NodeID, ports ...Handler) {
	if hi < lo {
		panic(fmt.Sprintf("netsim: switch %q: ConnectRange [%d, %d] is empty", s.Name(), lo, hi))
	}
	if len(ports) == 0 {
		panic(fmt.Sprintf("netsim: switch %q: ConnectRange [%d, %d] needs at least one port", s.Name(), lo, hi))
	}
	// The table stays sorted by (width, lo), so inserting after every
	// entry that does not sort after the new one is a stable sort's result:
	// equal (width, lo) routes keep their call order.
	r := rangeRoute{lo: lo, hi: hi, ports: ports}
	i := len(s.ranges)
	for i > 0 && r.before(&s.ranges[i-1]) {
		i--
	}
	s.ranges = slices.Insert(s.ranges, i, r)
}

// before reports whether r sorts ahead of o in a switch's range table:
// narrower first, then by lower bound.
func (r *rangeRoute) before(o *rangeRoute) bool {
	if wr, wo := r.hi-r.lo, o.hi-o.lo; wr != wo {
		return wr < wo
	}
	return r.lo < o.lo
}

// SetTTL sets the maximum forwarding hop count. Topology builders call it
// with the network diameter plus a safety margin so a real forwarding loop
// is detected within one or two circuits instead of after 32 silent hops.
func (s *Switch) SetTTL(maxHops int) {
	if maxHops < 1 {
		panic(fmt.Sprintf("netsim: switch %q: TTL %d must be at least 1", s.Name(), maxHops))
	}
	s.maxHops = maxHops
}

// SetECMPSalt sets the per-switch salt mixed into the ECMP flow hash.
func (s *Switch) SetECMPSalt(salt uint64) { s.ecmpSalt = salt }

// Port returns the exact-match output handler for dst, or nil if none is
// installed. Range routes are not consulted; use RouteFor for the full
// forwarding decision.
func (s *Switch) Port(dst NodeID) Handler { return s.exact[dst] }

// RouteFor returns the output port the switch would forward a packet with
// the given flow tuple to, or nil if no route matches. It is the pure
// lookup behind HandlePacket, exposed so topology code can trace the path a
// flow takes through ECMP fabrics without injecting traffic.
func (s *Switch) RouteFor(flow FlowID, src, dst NodeID) Handler {
	if out, ok := s.exact[dst]; ok {
		return out
	}
	for i := range s.ranges {
		r := &s.ranges[i]
		if dst < r.lo || dst > r.hi {
			continue
		}
		if len(r.ports) == 1 {
			return r.ports[0]
		}
		return r.ports[ecmpIndex(s.ecmpSalt, flow, src, dst, len(r.ports))]
	}
	return nil
}

// ecmpIndex hashes a flow tuple onto one of n equal-cost ports. The hash
// chains sim.Mix64 over the salt and tuple fields, so selection depends
// only on (seed, flow, src, dst): deterministic across runs, Go releases,
// and worker counts, yet spread evenly because every input bit diffuses
// through the mixer.
func ecmpIndex(salt uint64, flow FlowID, src, dst NodeID, n int) int {
	h := sim.Mix64(salt ^ 0x9E3779B97F4A7C15)
	h = sim.Mix64(h ^ uint64(flow))
	h = sim.Mix64(h ^ uint64(src))
	h = sim.Mix64(h ^ uint64(dst))
	return int(h % uint64(n))
}

// HandlePacket implements Handler by forwarding to the route for p.Dst.
// Packets with no matching route are counted and dropped; packets exceeding
// the TTL indicate a forwarding loop and panic with full flow context.
func (s *Switch) HandlePacket(p *Packet) {
	out := s.RouteFor(p.Flow, p.Src, p.Dst)
	if out == nil {
		s.DroppedNoRoute++
		s.LastNoRoute = NoRouteInfo{Flow: p.Flow, Src: p.Src, Dst: p.Dst}
		return
	}
	p.hops++
	if p.hops > s.maxHops {
		panic(fmt.Sprintf("netsim: routing loop at switch %q: flow=%d src=%d dst=%d seq=%d exceeded TTL %d",
			s.Name(), p.Flow, p.Src, p.Dst, p.Seq, s.maxHops))
	}
	s.RxPackets++
	if s.pipe != nil {
		s.pipe.send(out, p)
		return
	}
	out.HandlePacket(p)
}

// Host is an end system: it owns an egress path toward the network and
// demultiplexes arriving packets to per-flow handlers (the transport
// endpoints). Transports take their packets from the host's pool with
// NewPacket and give them back with Recycle where they end; a packet that
// arrives for a flow with no handler ends here and is recycled.
type Host struct {
	ID NodeID
	// name is the name NewHost was given; a host without one is called
	// h<ID> (see Name), so a fabric builds no host names.
	name string

	egress Handler
	// flows and pool are the flow table and the packet free list of the
	// host's topology, shared with every other host its builder placed on
	// that engine.
	flows flowTable
	pool  *packetPool

	// OnSend, when non-nil, observes every packet leaving the host (a
	// tracer's packet counter attaches here).
	OnSend func(p *Packet)

	// RxPackets/RxBytes count packets delivered to this host.
	RxPackets uint64
	RxBytes   uint64
	TxPackets uint64
	TxBytes   uint64
}

// NewHost creates a host with a flow table and a packet pool of its own.
// Attach its egress with SetEgress before sending. The topology builders
// instead share one table and one pool among all hosts on an engine.
func NewHost(id NodeID, name string) *Host {
	h := new(Host)
	h.init(id, name, make(flowTable), new(packetPool))
	return h
}

// init builds the host in place on the given flow table and pool, for
// NewHost and for topology builders that take their hosts from a slab.
func (h *Host) init(id NodeID, name string, flows flowTable, pool *packetPool) {
	*h = Host{ID: id, name: name, flows: flows, pool: pool}
}

// flowTable maps each live (host, flow) binding to the handler that
// receives the flow's packets at that host. A topology builder hands one
// table to every host it builds, as it hands out one packet pool, so a
// host's first flow makes no table of its own. The table is keyed by the
// binding, not indexed by flow ID: a streaming run's IDs grow with every
// flow it replays, while only the flows in progress hold entries.
type flowTable map[uint64]Handler

// binding packs a (host, flow) pair into its flow-table key. Both IDs must
// fit in 32 bits, which Attach checks.
func binding(host NodeID, flow FlowID) uint64 {
	return uint64(uint32(host))<<32 | uint64(uint32(flow))
}

// Name returns the host's name: the one it was built with, or h<ID>,
// rendered on each call.
func (h *Host) Name() string {
	if h.name == "" {
		return "h" + strconv.Itoa(int(h.ID))
	}
	return h.name
}

// SetEgress installs the first-hop handler (a Link or Bond).
func (h *Host) SetEgress(e Handler) { h.egress = e }

// Attach registers the handler that receives packets for the given flow at
// this host, replacing any earlier one. Host and flow IDs must lie in
// [0, 2^32).
func (h *Host) Attach(id FlowID, fh Handler) {
	if uint64(h.ID)>>32 != 0 || uint64(id)>>32 != 0 {
		panic(fmt.Sprintf("netsim: host %d cannot bind flow %d: IDs must lie in [0, 2^32)", h.ID, id))
	}
	h.flows[binding(h.ID, id)] = fh
}

// Detach removes a flow handler.
func (h *Host) Detach(id FlowID) { delete(h.flows, binding(h.ID, id)) }

// Send transmits a packet from this host into the network.
func (h *Host) Send(p *Packet) {
	if h.egress == nil {
		panic(fmt.Sprintf("netsim: host %q has no egress", h.Name()))
	}
	p.Src = h.ID
	h.TxPackets++
	h.TxBytes += uint64(p.WireSize)
	if h.OnSend != nil {
		h.OnSend(p)
	}
	h.egress.HandlePacket(p)
}

// HandlePacket implements Handler: deliver to the flow's transport handler.
// Packets for unknown flows are counted and recycled (the flow may already
// have closed).
func (h *Host) HandlePacket(p *Packet) {
	h.RxPackets++
	h.RxBytes += uint64(p.WireSize)
	if fh, ok := h.flows[binding(h.ID, p.Flow)]; ok {
		fh.HandlePacket(p)
		return
	}
	h.Recycle(p)
}
