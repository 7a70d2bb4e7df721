// Package tcp is a packet-level TCP data-transfer implementation for the
// greenenvy testbed: sequence/ACK machinery, SACK-based loss detection and
// recovery, retransmission timeouts with exponential backoff, RTT
// estimation, delayed ACKs, ECN echo (both classic and DCTCP-precise), and
// pacing. Congestion control is pluggable via internal/cca, mirroring the
// Linux kernel's tcp_congestion_ops split.
//
// The implementation covers what iperf3-style bulk transfers exercise; it
// deliberately omits connection establishment, flow control against a slow
// application, and urgent data, none of which affect the paper's
// measurements.
package tcp

import (
	"greenenvy/internal/sim"
)

// HeaderBytes is the wire overhead per segment (IP + TCP + options), and
// also the wire size of a pure ACK.
const HeaderBytes = 60

// Fixed stack parameters.
const (
	// maxRTO caps the retransmission timeout after backoff.
	maxRTO = 2 * sim.Second
	// delAckSegs is the number of full segments the receiver accumulates
	// before ACKing (2, per RFC 5681).
	delAckSegs = 2
	// delAckTimeout bounds how long an ACK may be delayed.
	delAckTimeout = 500 * sim.Microsecond
)

// Config carries per-connection tunables. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// MTU is the wire size of a full data segment; MSS = MTU −
	// HeaderBytes. The paper sweeps 1500/3000/6000/9000 (§4.4).
	MTU int
	// MinRTO is the retransmission timeout's floor. Datacenter
	// deployments tune it well below RFC 6298's 1 s.
	MinRTO sim.Duration
	// ReorderSegs is the reordering tolerance for SACK loss inference: a
	// segment is declared lost once data this many segments above it has
	// been SACKed (the DupThresh analogue).
	ReorderSegs int
	// RateLimitBps, when positive, paces the application below this rate
	// (iperf3's -b flag). Used by the Figure 2 throughput sweep.
	RateLimitBps int64
	// TxPathCost is the serialized per-packet CPU time on the transmit
	// path; the sender cannot emit packets faster than one per
	// TxPathCost. It comes from the energy cost model and is what caps
	// small-MTU throughput below line rate (§3).
	TxPathCost sim.Duration
	// NICRateBps is the host's aggregate access line rate (bonded NICs
	// summed). The stack never injects faster than the NIC can
	// serialize — the qdisc backpressure a real kernel provides — so
	// access-link queues stay bounded even for the constant-cwnd
	// baseline. 0 means unconstrained.
	NICRateBps int64
	// RxPathCost is the receiver's serialized per-packet processing
	// time. Arriving segments queue in a ring of RxRingPackets entries
	// drained at this rate: backlog delays ACK generation (so
	// delay-based and rate-based senders feel receiver pressure), and a
	// full ring drops packets (so loss-based senders adapt — and the
	// constant-cwnd baseline bleeds retransmissions, §4.3/Fig 8). At
	// large MTUs the packet rate is low and the path is invisible.
	// 0 disables the model.
	RxPathCost sim.Duration
	// RxRingPackets is the receive ring capacity (default 512).
	RxRingPackets int
}

// DefaultConfig returns the testbed defaults: MTU 9000 (the paper's default,
// §3) and a 10 ms RTO floor.
func DefaultConfig() Config {
	return Config{
		MTU:           9000,
		MinRTO:        10 * sim.Millisecond,
		ReorderSegs:   3,
		RxPathCost:    1600 * sim.Nanosecond, // ~625 kpps receive capacity
		RxRingPackets: 512,
	}
}

// MSS returns the payload bytes per segment for this config.
func (c Config) MSS() int { return c.MTU - HeaderBytes }

// rttEstimator implements RFC 6298 smoothed RTT estimation.
type rttEstimator struct {
	srtt   sim.Duration
	rttvar sim.Duration
	minRTT sim.Duration
}

// sample folds in one RTT measurement.
func (r *rttEstimator) sample(rtt sim.Duration) {
	if rtt <= 0 {
		return
	}
	if r.minRTT == 0 || rtt < r.minRTT {
		r.minRTT = rtt
	}
	if r.srtt == 0 {
		r.srtt = rtt
		r.rttvar = rtt / 2
		return
	}
	diff := r.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	r.rttvar = (3*r.rttvar + diff) / 4
	r.srtt = (7*r.srtt + rtt) / 8
}

// rto returns the RFC 6298 timeout before clamping and backoff.
func (r *rttEstimator) rto() sim.Duration {
	if r.srtt == 0 {
		return sim.Second // conservative pre-measurement default
	}
	return r.srtt + 4*r.rttvar
}
