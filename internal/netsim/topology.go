package netsim

import (
	"strconv"

	"greenenvy/internal/sim"
)

// DumbbellConfig describes the paper's lab topology (§3): sender hosts
// connected through a switch to one receiver, with the switch's output port
// toward the receiver as the bottleneck.
type DumbbellConfig struct {
	// Senders is the number of sender hosts (>= 1).
	Senders int
	// BottleneckBps is the rate of the switch-to-receiver port
	// (10 Gb/s in the paper).
	BottleneckBps int64
	// AccessBps is the rate of each host-to-switch and switch-to-host
	// access link. The paper's sender uses 2×10 Gb/s bonded; set
	// BondedSenderLinks to 2 to reproduce that.
	AccessBps int64
	// BondedSenderLinks is how many parallel access links each sender
	// bonds round-robin (1 = no bonding).
	BondedSenderLinks int
	// LinkDelay is the one-way propagation delay of every link.
	LinkDelay sim.Duration
	// SwitchDelay is the switch pipeline latency.
	SwitchDelay sim.Duration
	// BottleneckQueue is the queue discipline for the bottleneck port.
	// If nil, a drop-tail queue of BufferBytes is used.
	BottleneckQueue Queue
	// BufferBytes is the bottleneck buffer size used when
	// BottleneckQueue is nil (0 picks a 1 MiB default).
	BufferBytes int
	// MarkBytes is the DCTCP ECN threshold for the default bottleneck
	// queue (0 = no marking).
	MarkBytes int
	// AccessDelays optionally overrides LinkDelay on a per-sender basis:
	// sender i's uplinks and downlink use AccessDelays[i] when the slice
	// reaches that far and the entry is positive. Heterogeneous access
	// delays give flows unequal RTTs over the shared bottleneck (the
	// classic RTT-unfairness axis). The receiver's access link and the
	// bottleneck itself always use LinkDelay.
	AccessDelays []sim.Duration
}

// accessDelay resolves sender i's access-link propagation delay.
func (cfg *DumbbellConfig) accessDelay(i int) sim.Duration {
	if i < len(cfg.AccessDelays) && cfg.AccessDelays[i] > 0 {
		return cfg.AccessDelays[i]
	}
	return cfg.LinkDelay
}

// DefaultDumbbell returns the §3 testbed: 10 Gb/s bottleneck, bonded
// 2×10 Gb/s sender access, microsecond-scale datacenter latencies, and a
// 1 MiB drop-tail bottleneck buffer.
func DefaultDumbbell(senders int) DumbbellConfig {
	return DumbbellConfig{
		Senders:           senders,
		BottleneckBps:     10_000_000_000,
		AccessBps:         10_000_000_000,
		BondedSenderLinks: 2,
		LinkDelay:         5 * sim.Microsecond,
		SwitchDelay:       sim.Microsecond,
		BufferBytes:       1 << 20,
	}
}

// Dumbbell is an assembled topology.
type Dumbbell struct {
	Senders  []*Host
	Receiver *Host
	Switch   *Switch
	// Bottleneck is the switch-to-receiver link whose queue is the shared
	// contention point.
	Bottleneck *Link
}

// NewDumbbell wires up the topology described by cfg.
//
// Node IDs: senders are 0..Senders-1, the receiver is Senders, the switch is
// Senders+1.
func NewDumbbell(engine *sim.Engine, cfg DumbbellConfig) *Dumbbell {
	if cfg.Senders < 1 {
		panic("netsim: dumbbell needs at least one sender")
	}
	if cfg.BottleneckBps <= 0 || cfg.AccessBps <= 0 {
		panic("netsim: dumbbell link rates must be positive")
	}
	if cfg.BondedSenderLinks <= 0 {
		cfg.BondedSenderLinks = 1
	}
	bufBytes := cfg.BufferBytes
	if bufBytes == 0 {
		bufBytes = 1 << 20
	}

	// Every element comes from a slab sized for the topology: each sender
	// has its bonded uplinks and a downlink, the receiver the bottleneck
	// and its uplink, and every link but a supplied bottleneck a default
	// drop-tail queue.
	bond := cfg.BondedSenderLinks
	numLinks := 2 + cfg.Senders*(bond+1)
	hosts := make(slab[Host], 0, cfg.Senders+1)
	links := make(slab[Link], 0, numLinks)
	drops := make(slab[DropTail], 0, numLinks)
	// Links and the switch share one stage per distinct delay.
	stg := stages{eng: engine}
	newLink := func(name string, rateBps int64, delay sim.Duration, q Queue, dst Handler) *Link {
		l := links.one()
		l.name = name
		l.init(engine, rateBps, stg.of(delay), q, dst)
		return l
	}
	newDropTail := func(capBytes, markBytes int) *DropTail {
		q := drops.one()
		*q = DropTail{CapBytes: capBytes, MarkBytes: markBytes}
		return q
	}

	d := &Dumbbell{Senders: make([]*Host, 0, cfg.Senders)}
	// Senders allocate the data packets the receiver frees, and the
	// receiver allocates the ACKs the senders free, so every host shares
	// one pool, and one flow table.
	flows, pool := make(flowTable), new(packetPool)
	recvID := NodeID(cfg.Senders)
	d.Receiver = hosts.one()
	d.Receiver.init(recvID, "receiver", flows, pool)
	d.Switch = &Switch{name: "tofino"}
	d.Switch.init(stg.pipeline(cfg.SwitchDelay))
	// Every path crosses the single switch exactly once; TTL 2 (diameter
	// plus one hop of margin) catches a reflected packet immediately.
	d.Switch.SetTTL(2)

	// Bottleneck port: switch -> receiver.
	bq := cfg.BottleneckQueue
	if bq == nil {
		bq = newDropTail(bufBytes, cfg.MarkBytes)
	}
	d.Bottleneck = newLink("bottleneck", cfg.BottleneckBps, cfg.LinkDelay, bq, d.Receiver)
	d.Switch.Connect(recvID, d.Bottleneck)

	// Receiver's egress goes back through the switch (for ACKs).
	revAccess := newLink("receiver-uplink", cfg.AccessBps, cfg.LinkDelay, newDropTail(0, 0), d.Switch)
	d.Receiver.SetEgress(revAccess)

	var members slab[*Link]
	if bond > 1 {
		members = make(slab[*Link], 0, cfg.Senders*bond)
	}
	for i := 0; i < cfg.Senders; i++ {
		h := hosts.one()
		h.init(NodeID(i), "sender"+strconv.Itoa(i), flows, pool)
		delay := cfg.accessDelay(i)
		// Uplink(s): host -> switch, optionally bonded.
		if bond > 1 {
			up := members.next(bond)
			for j := range up {
				up[j] = newLink(h.name+"-uplink"+strconv.Itoa(j), cfg.AccessBps, delay, newDropTail(0, 0), d.Switch)
			}
			h.SetEgress(NewBond(up...))
		} else {
			h.SetEgress(newLink(h.name+"-uplink", cfg.AccessBps, delay, newDropTail(0, 0), d.Switch))
		}
		// Downlink: switch -> host (carries ACKs; never congested).
		down := newLink(h.name+"-downlink", cfg.AccessBps, delay, newDropTail(0, 0), h)
		d.Switch.Connect(h.ID, down)
		d.Senders = append(d.Senders, h)
	}
	return d
}

// BottleneckDRR returns the bottleneck queue as a *DRR, or nil if the
// bottleneck uses a different discipline. Experiments that sweep bandwidth
// allocations use this to set per-flow weights.
func (d *Dumbbell) BottleneckDRR() *DRR {
	q, _ := d.Bottleneck.Queue().(*DRR)
	return q
}

// AllHosts returns senders plus the receiver.
func (d *Dumbbell) AllHosts() []*Host {
	return append(append([]*Host{}, d.Senders...), d.Receiver)
}
