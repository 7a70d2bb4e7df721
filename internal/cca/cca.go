// Package cca implements the congestion control algorithms the paper
// measures (§3): TCP Reno, CUBIC, DCTCP, BBR (v1), BBRv2 (alpha), Vegas,
// Scalable, Westwood, and HighSpeed TCP, plus the paper's custom kernel
// module that "replaces any CC mechanism with a large, constant cwnd value"
// (the baseline).
//
// Algorithms are written against a small Conn interface, mirroring how
// Linux's tcp_congestion_ops decouples algorithms from the stack. Each
// algorithm owns the congestion window (bytes) and, if it paces, a pacing
// rate; internal/tcp enforces both.
package cca

import (
	"fmt"
	"sort"

	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
)

// Conn is the sender state an algorithm may observe. It is implemented by
// *tcp.Sender.
type Conn interface {
	// Now returns the current simulated time.
	Now() sim.Time
	// MSS returns the maximum segment (payload) size in bytes.
	MSS() int
	// SRTT returns the smoothed RTT estimate (0 until the first sample).
	SRTT() sim.Duration
	// MinRTT returns the minimum RTT observed (0 until the first sample).
	MinRTT() sim.Duration
	// BytesInFlight returns the current outstanding bytes estimate.
	BytesInFlight() int
}

// AckInfo describes one ACK event delivered to the algorithm.
type AckInfo struct {
	// AckedBytes is the number of bytes newly acknowledged (cumulative
	// plus selective).
	AckedBytes int
	// RTT is the RTT sample carried by this ACK (0 if none).
	RTT sim.Duration
	// ECE reports whether the ACK carried an ECN echo.
	ECE bool
	// Delivered is the total bytes delivered so far.
	Delivered uint64
	// DeliveryRate is the delivery-rate sample in bytes/second computed
	// by the sender's rate estimator (0 if unavailable).
	DeliveryRate float64
	// AppLimited reports whether the rate sample was taken while the
	// sender was application-limited (BBR must not use such samples to
	// lower its bandwidth estimate).
	AppLimited bool
	// InRecovery reports whether the sender is in loss recovery.
	InRecovery bool
	// RoundTrips counts delivery rounds (incremented once per RTT).
	RoundTrips uint64
	// INT carries the in-band telemetry echoed by this ACK, for
	// algorithms that request it (HPCC).
	INT []netsim.INTHop
}

// INTConsumer is implemented by algorithms that need in-band network
// telemetry stamped onto their data packets (HPCC). The transport checks
// for it with a type assertion.
type INTConsumer interface {
	NeedsINT() bool
}

// CongestionControl is the algorithm interface. Implementations are not
// safe for concurrent use; the simulator is single-threaded.
type CongestionControl interface {
	// Name returns the registry name (e.g. "cubic").
	Name() string
	// Init is called once before the first segment is sent.
	Init(c Conn)
	// OnAck is called for every ACK that acknowledges new data.
	OnAck(c Conn, info AckInfo)
	// OnLoss is called when loss is detected via duplicate ACKs/SACK
	// (fast retransmit), once per recovery episode.
	OnLoss(c Conn)
	// OnRTO is called on a retransmission timeout.
	OnRTO(c Conn)
	// CWnd returns the congestion window in bytes.
	CWnd() float64
	// PacingRate returns the pacing rate in bits/second, or 0 if the
	// algorithm does not pace (pure window-based sending).
	PacingRate() float64
	// ECNCapable reports whether segments should carry ECT (and the
	// receiver should use precise ECE feedback). Only DCTCP returns true.
	ECNCapable() bool
	// Restart returns the instance to its just-constructed state in
	// place, so the testbed's pooled flow lifecycle reuses one controller
	// across transfers without going back through the registry: a
	// restarted controller and a fresh one behave byte-identically on the
	// same event sequence.
	Restart()
}

// Factory constructs a fresh algorithm instance.
type Factory func() CongestionControl

var registry = map[string]Factory{}

// Register adds a named algorithm to the registry. It panics on duplicate
// names, which would indicate an init-order bug.
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("cca: duplicate registration of %q", name))
	}
	registry[name] = f
}

// New constructs the named algorithm or returns an error listing the
// available names.
func New(name string) (CongestionControl, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("cca: unknown algorithm %q (have %v)", name, Names())
	}
	return f(), nil
}

// MustNew is New for static names; it panics on unknown algorithms.
func MustNew(name string) CongestionControl {
	c, err := New(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Names returns the registered algorithm names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// PaperOrder lists the algorithms in the order of the paper's Figure 5
// x-axis, which is also the canonical iteration order for the benchmark
// harness.
func PaperOrder() []string {
	return []string{"bbr", "westwood", "highspeed", "scalable", "reno", "vegas", "dctcp", "cubic", "baseline", "bbr2"}
}

// ProductionOrder lists the §5 production datacenter algorithms the paper
// wished it could evaluate ("it is particularly intriguing for us to
// evaluate production algorithms of large data centers, i.e., Swift, DCQCN,
// and HPCC") and invited the community to benchmark. This reproduction
// implements them; RunExtendedCCAs measures their energy.
func ProductionOrder() []string {
	return []string{"swift", "dcqcn", "hpcc"}
}
