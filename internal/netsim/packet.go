// Package netsim is the packet-level network substrate for the greenenvy
// testbed. It models the lab described in §3 of the paper: hosts with
// (optionally bonded) NICs, links with finite rate and propagation delay,
// and an output-queued switch whose bottleneck port supports drop-tail FIFO,
// DCTCP-style ECN marking, weighted fair queueing (for the paper's
// controlled bandwidth allocations), and strict priority (for the
// "full speed, then idle" schedule).
//
// netsim deliberately knows nothing about congestion control; it delivers
// packets and that is all. Transport behaviour lives in internal/tcp and
// internal/cca.
package netsim

import (
	"fmt"

	"greenenvy/internal/sim"
)

// FlowID identifies a transport flow end to end. IDs are assigned by the
// testbed when flows are created and are dense small integers, which lets
// schedulers index per-flow state with slices.
type FlowID int

// NodeID identifies a host or switch in the topology.
type NodeID int

// Flags is a bitset of TCP/IP header flags relevant to the simulation.
type Flags uint16

// Header flag bits. ECT marks an ECN-capable transport (set by DCTCP
// senders); CE is the congestion-experienced mark applied by queues; ECE is
// the receiver's echo of CE back to the sender.
const (
	FlagSYN Flags = 1 << iota
	FlagACK
	FlagFIN
	FlagECT // ECN-capable transport (IP header)
	FlagCE  // congestion experienced (set by the network)
	FlagECE // echo of CE from receiver to sender (TCP header)
	// FlagINT requests in-band network telemetry: each link appends an
	// INTHop as the packet is transmitted (the programmable-switch
	// feature HPCC relies on).
	FlagINT
)

// INTHop is one hop's in-band telemetry record, stamped by a Link when a
// FlagINT packet is serialized: the per-hop state HPCC's sender uses to
// compute link utilization (Li et al., SIGCOMM 2019).
type INTHop struct {
	// QueueBytes is the hop's queue occupancy when the packet left it.
	QueueBytes int
	// TxBytes is the hop's cumulative transmitted byte counter.
	TxBytes uint64
	// At is the local timestamp of transmission.
	At sim.Time
	// RateBps is the hop's line rate.
	RateBps int64
}

// Has reports whether all bits in mask are set.
func (f Flags) Has(mask Flags) bool { return f&mask == mask }

// Packet is a simulated segment. Fields cover what the transport and the
// network need; there is no payload, only a wire size.
type Packet struct {
	Flow FlowID
	Src  NodeID
	Dst  NodeID

	// Seq is the first data byte carried; with DataLen 0 it is the
	// sender's current sequence (pure ACK).
	Seq uint64
	// Ack is the cumulative acknowledgment (valid when FlagACK set).
	Ack uint64
	// DataLen is the number of payload bytes carried.
	DataLen int
	// WireSize is the on-the-wire size in bytes including all headers;
	// this is what consumes link capacity and queue space.
	WireSize int

	Flags Flags

	// SACK carries up to four selective-acknowledgment blocks on ACKs.
	SACK []SACKBlock

	// INT carries per-hop telemetry (data packets accumulate it when
	// FlagINT is set; receivers echo it back on ACKs).
	INT []INTHop

	// SentAt is stamped by the sending transport when the packet enters
	// the NIC, and echoed back on ACKs for RTT measurement.
	SentAt sim.Time
	// EchoTS is the timestamp echo on ACK packets (RFC 7323 style).
	EchoTS sim.Time

	// Retransmit marks a retransmitted data segment (used by accounting).
	Retransmit bool

	// hops counts forwarding steps as a routing-loop guard.
	hops int
	// pooled marks a packet issued by Host.NewPacket: only those are ever
	// recycled. free marks one sitting in a pool's free list.
	pooled, free bool
}

// SACKBlock is a half-open byte range [Start, End) acknowledged out of
// order.
type SACKBlock struct {
	Start, End uint64
}

// String renders a compact human-readable description for traces and tests.
func (p *Packet) String() string {
	kind := "DATA"
	if p.Flags.Has(FlagACK) && p.DataLen == 0 {
		kind = "ACK"
	}
	return fmt.Sprintf("%s flow=%d seq=%d ack=%d len=%d wire=%d", kind, p.Flow, p.Seq, p.Ack, p.DataLen, p.WireSize)
}

// Handler consumes packets. Hosts, switches, and transport endpoints all
// implement it.
type Handler interface {
	HandlePacket(p *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(p *Packet)

// HandlePacket implements Handler.
func (f HandlerFunc) HandlePacket(p *Packet) { f(p) }
