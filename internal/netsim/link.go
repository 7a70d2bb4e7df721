package netsim

import (
	"fmt"

	"greenenvy/internal/sim"
)

// Link is a unidirectional transmission line: a queue feeding a serializer
// of fixed rate, followed by a propagation delay, delivering to a Handler.
// It is the only place in the simulator where packets consume time.
type Link struct {
	// Name appears in traces and panics.
	Name string
	// RateBps is the line rate in bits per second.
	RateBps int64
	// Delay is the one-way propagation delay. It must stay constant once
	// packets flow: deliveries ride a FIFO delay line, which panics if
	// due times ever go backwards.
	Delay sim.Duration

	engine *sim.Engine
	queue  Queue
	dst    Handler
	busy   bool
	// txPkt is the packet currently being serialized; txDone is the
	// standing serialization-completion timer (rearmed per packet, never
	// reallocated).
	txPkt  *Packet
	txDone sim.Timer[Link]
	// wire is the propagation stage: delay is constant per link, so
	// deliveries are FIFO and one standing event plus a ring of in-flight
	// packets replaces a heap event and closure per packet.
	wire sim.DelayLine[Link, *Packet]

	// TxPackets and TxBytes count packets/bytes that completed
	// serialization onto the wire.
	TxPackets uint64
	TxBytes   uint64
	// busySince tracks utilization accounting.
	busyTime  sim.Duration
	busyStart sim.Time
}

// NewLink creates a link with the given queue discipline delivering to dst.
func NewLink(engine *sim.Engine, name string, rateBps int64, delay sim.Duration, queue Queue, dst Handler) *Link {
	l := new(Link)
	l.init(engine, name, rateBps, delay, queue, dst)
	return l
}

// init builds the link in place, for NewLink and for topology builders
// that take their links from a slab.
func (l *Link) init(engine *sim.Engine, name string, rateBps int64, delay sim.Duration, queue Queue, dst Handler) {
	if rateBps <= 0 {
		panic(fmt.Sprintf("netsim: link %q with non-positive rate %d", name, rateBps))
	}
	if queue == nil || dst == nil || engine == nil {
		panic("netsim: NewLink requires engine, queue and dst")
	}
	if b, ok := queue.(EngineBinder); ok {
		b.BindEngine(engine)
	}
	*l = Link{Name: name, RateBps: rateBps, Delay: delay, engine: engine, queue: queue, dst: dst}
	l.txDone.Init(engine, l, (*Link).onTxDone)
	l.wire.Init(engine, l, (*Link).arrive)
}

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
	if !l.busy {
		l.transmitNext()
	}
}

// transmitNext starts serializing the next queued packet, if any.
func (l *Link) transmitNext() {
	p := l.queue.Dequeue()
	if p == nil {
		l.busy = false
		return
	}
	l.busy = true
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
	l.wire.Schedule(p, l.engine.Now()+l.Delay)
	l.transmitNext()
}

// arrive hands a packet that has crossed the wire to the far end.
func (l *Link) arrive(p *Packet) { l.dst.HandlePacket(p) }

// Utilization returns the fraction of [0, now] the line spent transmitting.
func (l *Link) Utilization() float64 {
	now := l.engine.Now()
	if now == 0 {
		return 0
	}
	bt := l.busyTime
	if l.busy {
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
