package workload

import (
	"fmt"
	"math"

	"greenenvy/internal/sim"
)

// Stream is a pull-based flow generator: the same Poisson next-arrival
// state machine Generate runs, but exposed one flow at a time so arrival
// streams of any length — the workload-scale experiment replays 10^5–10^6
// flows per repetition — cost O(1) memory. The draw order per flow is
// exactly Generate's (one inter-arrival uniform, then one size draw), so a
// Stream and a Generate call over the same RNG state produce identical
// flows; Generate itself is now a drain of this iterator.
//
// A Stream is bounded either by a time window (NewStream, matching
// Generate's contract including its at-least-one-flow fallback) or by a
// flow count (NewStreamN, for scale targets independent of the window).
type Stream struct {
	rng      *sim.RNG
	dist     SizeDist
	lambda   float64
	window   sim.Duration // bound when > 0
	limit    uint64       // bound when > 0
	t        float64      // running arrival clock, seconds
	produced uint64
	done     bool
}

func newStream(rng *sim.RNG, dist SizeDist, load, linkBps float64) (*Stream, error) {
	if load <= 0 || load >= 1 {
		return nil, fmt.Errorf("workload: load %v out of (0,1)", load)
	}
	if linkBps <= 0 {
		return nil, fmt.Errorf("workload: need positive link rate")
	}
	// λ = load × capacity / mean flow size (flows per second).
	return &Stream{rng: rng, dist: dist, lambda: load * linkBps / 8 / dist.Mean()}, nil
}

// NewStream returns a window-bounded stream: flows arrive until the first
// arrival at or past the window, and — like Generate — at least one flow
// is always produced (a window too small for any Poisson arrival yields a
// single flow at time zero).
func NewStream(rng *sim.RNG, dist SizeDist, load, linkBps float64, window sim.Duration) (*Stream, error) {
	if window <= 0 {
		return nil, fmt.Errorf("workload: need positive window")
	}
	s, err := newStream(rng, dist, load, linkBps)
	if err != nil {
		return nil, err
	}
	s.window = window
	return s, nil
}

// NewStreamN returns a count-bounded stream of exactly n flows with the
// same Poisson arrival process, unconstrained by a window — the form the
// workload-scale experiment uses to hit a flow-count target.
func NewStreamN(rng *sim.RNG, dist SizeDist, load, linkBps float64, n uint64) (*Stream, error) {
	if n == 0 {
		return nil, fmt.Errorf("workload: need at least one flow")
	}
	s, err := newStream(rng, dist, load, linkBps)
	if err != nil {
		return nil, err
	}
	s.limit = n
	return s, nil
}

// Rate returns the arrival rate λ in flows per second.
func (s *Stream) Rate() float64 { return s.lambda }

// Produced returns how many flows the stream has emitted so far.
func (s *Stream) Produced() uint64 { return s.produced }

// Next returns the next flow, or ok=false once the stream is exhausted.
func (s *Stream) Next() (f Flow, ok bool) {
	if s.done || (s.limit > 0 && s.produced >= s.limit) {
		s.done = true
		return Flow{}, false
	}
	// Exponential inter-arrival.
	s.t += -math.Log(1-s.rng.Float64()) / s.lambda
	at := sim.FromSeconds(s.t)
	if s.window > 0 && at >= s.window {
		s.done = true
		if s.produced == 0 {
			// Generate's fallback: a too-small window still yields one
			// flow at time zero (the arrival draw above was consumed).
			s.produced++
			return Flow{Start: 0, Bytes: s.dist.Sample(s.rng)}, true
		}
		return Flow{}, false
	}
	s.produced++
	return Flow{Start: at, Bytes: s.dist.Sample(s.rng)}, true
}

// OfferedLoadFrom computes the offered load of a flow stream online,
// accumulating bytes as the iterator yields them — nothing forces
// materializing the flows. next is any pull iterator with Stream.Next's
// shape; the slice-backed OfferedLoad wraps this.
func OfferedLoadFrom(next func() (Flow, bool), linkBps float64, window sim.Duration) float64 {
	var bytes float64
	for {
		f, ok := next()
		if !ok {
			break
		}
		bytes += float64(f.Bytes)
	}
	return bytes * 8 / (linkBps * window.Seconds())
}

// Scaled shrinks (or inflates) another distribution's sizes by a constant
// factor. Reduced-scale replays use it to keep per-flow transfer times
// proportionate when the flow count is scaled down: the mean scales by the
// same factor, so a load target produces the same arrival rate shape.
type Scaled struct {
	Dist   SizeDist
	Factor float64
}

// Sample implements SizeDist; scaled sizes are floored at one byte.
func (s Scaled) Sample(rng *sim.RNG) uint64 {
	v := uint64(float64(s.Dist.Sample(rng)) * s.Factor)
	if v == 0 {
		v = 1
	}
	return v
}

// Mean implements SizeDist.
func (s Scaled) Mean() float64 { return s.Dist.Mean() * s.Factor }

// Name implements SizeDist.
func (s Scaled) Name() string { return fmt.Sprintf("%s×%g", s.Dist.Name(), s.Factor) }
