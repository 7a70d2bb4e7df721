package cca

import "greenenvy/internal/sim"

// Vegas implements TCP Vegas (Brakmo et al., SIGCOMM 1994): a delay-based
// algorithm that compares expected throughput (cwnd/baseRTT) with actual
// throughput (cwnd/RTT) once per round trip and nudges the window to keep
// between alpha and beta segments queued in the network.
type Vegas struct {
	cwnd     float64
	ssthresh float64

	baseRTT  sim.Duration // minimum observed RTT
	roundMin sim.Duration // minimum RTT this round
	roundEnd uint64       // delivered count ending the current round
	samples  int
}

// Vegas parameters (segments of queued data).
const (
	vegasAlpha = 2.0
	vegasBeta  = 4.0
	vegasGamma = 1.0
)

func init() { Register("vegas", func() CongestionControl { return NewVegas() }) }

// NewVegas returns a Vegas instance.
func NewVegas() *Vegas { return &Vegas{} }

// Name implements CongestionControl.
func (v *Vegas) Name() string { return "vegas" }

// Init implements CongestionControl.
func (v *Vegas) Init(c Conn) {
	v.cwnd = float64(10 * c.MSS())
	v.ssthresh = 1 << 40
}

// OnAck implements CongestionControl.
func (v *Vegas) OnAck(c Conn, info AckInfo) {
	if info.RTT > 0 {
		if v.baseRTT == 0 || info.RTT < v.baseRTT {
			v.baseRTT = info.RTT
		}
		if v.roundMin == 0 || info.RTT < v.roundMin {
			v.roundMin = info.RTT
		}
		v.samples++
	}
	if info.InRecovery {
		return
	}
	if info.Delivered < v.roundEnd {
		return
	}
	// A round trip of data has been delivered: run the Vegas estimator.
	v.roundEnd = info.Delivered + uint64(v.cwnd)
	if v.samples < 2 || v.roundMin == 0 || v.baseRTT == 0 {
		// Not enough samples: grow like slow start.
		v.cwnd += float64(c.MSS())
		return
	}
	mss := float64(c.MSS())
	expected := v.cwnd / v.baseRTT.Seconds()
	actual := v.cwnd / v.roundMin.Seconds()
	diffSegs := (expected - actual) * v.baseRTT.Seconds() / mss

	if v.cwnd < v.ssthresh {
		// Modified slow start: double only every other round, leave
		// when queueing exceeds gamma.
		if diffSegs > vegasGamma {
			v.ssthresh = v.cwnd
			v.cwnd -= mss * (diffSegs - vegasGamma)
		} else {
			v.cwnd += mss * (v.cwnd / mss) / 2 // half-rate exponential
		}
	} else {
		switch {
		case diffSegs < vegasAlpha:
			v.cwnd += mss
		case diffSegs > vegasBeta:
			v.cwnd -= mss
		}
	}
	if min := float64(2 * c.MSS()); v.cwnd < min {
		v.cwnd = min
	}
	v.roundMin = 0
	v.samples = 0
}

// OnLoss implements CongestionControl: Vegas falls back to Reno-style
// halving on packet loss.
func (v *Vegas) OnLoss(c Conn) {
	v.cwnd /= 2
	if min := float64(2 * c.MSS()); v.cwnd < min {
		v.cwnd = min
	}
	v.ssthresh = v.cwnd
}

// OnRTO implements CongestionControl.
func (v *Vegas) OnRTO(c Conn) {
	v.ssthresh = v.cwnd / 2
	v.cwnd = float64(c.MSS())
}

// CWnd implements CongestionControl.
func (v *Vegas) CWnd() float64 { return v.cwnd }

// PacingRate implements CongestionControl.
func (v *Vegas) PacingRate() float64 { return 0 }

// ECNCapable implements CongestionControl.
func (v *Vegas) ECNCapable() bool { return false }
