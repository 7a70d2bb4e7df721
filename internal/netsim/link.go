package netsim

import (
	"fmt"

	"greenenvy/internal/sim"
)

// Link is a unidirectional transmission line: a queue feeding a serializer
// of fixed rate, followed by a propagation delay, delivering to a Handler.
// It is the only place in the simulator where packets consume time.
type Link struct {
	// RateBps is the line rate in bits per second.
	RateBps int64

	engine *sim.Engine
	queue  Queue
	dst    Handler
	// wire is the propagation stage, shared with every link and switch of
	// the topology that has the link's delay.
	wire *stage
	// name is the name NewLink was given. A fat-tree link has none: from,
	// the element whose egress port the link is, renders it (see Name).
	name string
	from named
	// txPkt is the packet currently being serialized, nil while the link
	// is idle; txDone is the standing serialization-completion timer
	// (rearmed per packet, never reallocated).
	txPkt  *Packet
	txDone sim.Timer[Link]

	// TxPackets and TxBytes count packets/bytes that completed
	// serialization onto the wire.
	TxPackets uint64
	TxBytes   uint64
	// busySince tracks utilization accounting.
	busyTime  sim.Duration
	busyStart sim.Time
}

// named is a topology element that renders its own name.
type named interface{ Name() string }

// NewLink creates a link with the given queue discipline delivering to dst,
// on a propagation stage of its own.
func NewLink(engine *sim.Engine, name string, rateBps int64, delay sim.Duration, queue Queue, dst Handler) *Link {
	l := &Link{name: name}
	l.init(engine, rateBps, newStage(engine, delay), queue, dst)
	return l
}

// init builds the link in place on the given propagation stage, for
// NewLink and for topology builders that take their links from a slab. l
// must be zero but for its name or its from element.
func (l *Link) init(engine *sim.Engine, rateBps int64, wire *stage, queue Queue, dst Handler) {
	if rateBps <= 0 {
		panic(fmt.Sprintf("netsim: link %q with non-positive rate %d", l.Name(), rateBps))
	}
	if queue == nil || dst == nil || engine == nil {
		panic("netsim: NewLink requires engine, queue and dst")
	}
	if b, ok := queue.(EngineBinder); ok {
		b.BindEngine(engine)
	}
	l.RateBps, l.engine, l.queue, l.dst, l.wire = rateBps, engine, queue, dst, wire
	l.txDone.Init(engine, l, (*Link).onTxDone)
}

// Name returns the link's name: the one NewLink was given, or for a
// fat-tree link "<from>-><to>" ("<host>-up" for a host's uplink), rendered
// on each call.
func (l *Link) Name() string {
	if l.from == nil {
		return l.name
	}
	if _, up := l.from.(*Host); up {
		return l.from.Name() + "-up"
	}
	return l.from.Name() + "->" + l.dst.(named).Name()
}

// Delay returns the one-way propagation delay. It is fixed when the link
// is built: the link shares its stage with every element of its topology
// that has that delay.
func (l *Link) Delay() sim.Duration { return l.wire.delay }

// Queue exposes the link's queue discipline (for weight configuration and
// stats inspection).
func (l *Link) Queue() Queue { return l.queue }

// Dst returns the handler at the far end of the link. Topology code uses it
// to walk a flow's forwarding path hop by hop.
func (l *Link) Dst() Handler { return l.dst }

// SerializationTime returns the time to clock size bytes onto the wire.
func (l *Link) SerializationTime(size int) sim.Duration {
	return sim.Duration(int64(size) * 8 * int64(sim.Second) / l.RateBps)
}

// HandlePacket implements Handler: enqueue and start transmitting if idle.
func (l *Link) HandlePacket(p *Packet) {
	if !l.queue.Enqueue(p) {
		return // dropped; queue stats already updated
	}
	if l.txPkt == nil {
		l.transmitNext()
	}
}

// transmitNext starts serializing the next queued packet, if any.
func (l *Link) transmitNext() {
	p := l.queue.Dequeue()
	if p == nil {
		return
	}
	l.busyStart = l.engine.Now()
	l.txPkt = p
	l.txDone.Reset(l.SerializationTime(p.WireSize))
}

// onTxDone fires when the current packet finishes serializing: it enters
// the propagation stage and the next queued packet starts clocking out.
func (l *Link) onTxDone() {
	p := l.txPkt
	l.txPkt = nil
	l.TxPackets++
	l.TxBytes += uint64(p.WireSize)
	l.busyTime += l.engine.Now() - l.busyStart
	if p.Flags.Has(FlagINT) {
		p.INT = append(p.INT, INTHop{
			QueueBytes: l.queue.Bytes(),
			TxBytes:    l.TxBytes,
			At:         l.engine.Now(),
			RateBps:    l.RateBps,
		})
	}
	l.wire.send(l.dst, p)
	l.transmitNext()
}

// Utilization returns the fraction of [0, now] the line spent transmitting.
func (l *Link) Utilization() float64 {
	now := l.engine.Now()
	if now == 0 {
		return 0
	}
	bt := l.busyTime
	if l.txPkt != nil {
		bt += now - l.busyStart
	}
	return float64(bt) / float64(now)
}

// Bond spreads packets round-robin across multiple member links, modelling
// the paper's sender that is "connected to the switch with 2×10Gb/s links
// where the interfaces are bonded and packets are sent round-robin among the
// two" (§3). With two members, the sender's access capacity is 20 Gb/s and
// the bottleneck stays at the switch.
type Bond struct {
	members []*Link
	next    int
}

// NewBond creates a round-robin bond over the given links. It panics if no
// members are supplied.
func NewBond(members ...*Link) *Bond {
	if len(members) == 0 {
		panic("netsim: bond with no member links")
	}
	return &Bond{members: members}
}

// HandlePacket implements Handler by assigning the packet to the next
// member link in round-robin order.
func (b *Bond) HandlePacket(p *Packet) {
	l := b.members[b.next]
	b.next = (b.next + 1) % len(b.members)
	l.HandlePacket(p)
}

// Members returns the bonded links.
func (b *Bond) Members() []*Link { return b.members }
