package cca

import "greenenvy/internal/sim"

// Swift implements Google's Swift congestion control (Kumar et al.,
// SIGCOMM 2020), one of the production datacenter algorithms the paper's
// §5 says it would be "particularly intriguing" to evaluate: delay-based
// AIMD against a target end-to-end delay, with multiplicative decrease
// proportional to how far delay overshoots the target, applied at most
// once per RTT.
type Swift struct {
	cwnd    float64
	baseRTT sim.Duration
	lastMD  sim.Time
	mss     float64
}

// Swift parameters (simplified from the paper's fabric/host split: our
// testbed has a single fabric hop, so one combined target suffices).
const (
	// swiftBaseTarget is the base target delay above the propagation
	// floor.
	swiftBaseTarget = 50 * sim.Microsecond
	// swiftAI is the additive increase in segments per RTT.
	swiftAI = 1.0
	// swiftBeta scales the multiplicative decrease.
	swiftBeta = 0.8
	// swiftMaxMDF bounds any single decrease.
	swiftMaxMDF = 0.5
)

func init() { Register("swift", func() CongestionControl { return NewSwift() }) }

// NewSwift returns a Swift instance.
func NewSwift() *Swift { return &Swift{} }

// Name implements CongestionControl.
func (s *Swift) Name() string { return "swift" }

// Init implements CongestionControl.
func (s *Swift) Init(c Conn) {
	s.mss = float64(c.MSS())
	s.cwnd = 10 * s.mss
}

// target returns the current delay target: base target plus the
// propagation floor.
func (s *Swift) target() sim.Duration {
	return s.baseRTT + swiftBaseTarget
}

// OnAck implements CongestionControl.
func (s *Swift) OnAck(c Conn, info AckInfo) {
	if info.RTT <= 0 {
		return
	}
	if s.baseRTT == 0 || info.RTT < s.baseRTT {
		s.baseRTT = info.RTT
	}
	if info.InRecovery {
		return
	}
	now := c.Now()
	delay := info.RTT
	t := s.target()
	if delay < t {
		// Additive increase: AI segments per window acknowledged.
		s.cwnd += swiftAI * s.mss * float64(info.AckedBytes) / s.cwnd
		return
	}
	// Multiplicative decrease, at most once per RTT.
	if now-s.lastMD < c.SRTT() {
		return
	}
	s.lastMD = now
	over := float64(delay-t) / float64(delay)
	factor := 1 - swiftBeta*over
	if factor < 1-swiftMaxMDF {
		factor = 1 - swiftMaxMDF
	}
	s.cwnd *= factor
	if min := 2 * s.mss; s.cwnd < min {
		s.cwnd = min
	}
}

// OnLoss implements CongestionControl: loss is a severe congestion signal;
// apply the maximum decrease (once per RTT via the sender's recovery
// gating).
func (s *Swift) OnLoss(c Conn) {
	s.cwnd *= 1 - swiftMaxMDF
	if min := 2 * s.mss; s.cwnd < min {
		s.cwnd = min
	}
}

// OnRTO implements CongestionControl.
func (s *Swift) OnRTO(c Conn) {
	s.cwnd = s.mss
}

// CWnd implements CongestionControl.
func (s *Swift) CWnd() float64 { return s.cwnd }

// PacingRate implements CongestionControl (window-based; Swift paces only
// for sub-MSS windows, which the testbed clamps away).
func (s *Swift) PacingRate() float64 { return 0 }

// ECNCapable implements CongestionControl.
func (s *Swift) ECNCapable() bool { return false }
