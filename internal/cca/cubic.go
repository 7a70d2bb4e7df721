package cca

import (
	"math"

	"greenenvy/internal/sim"
)

// Cubic implements CUBIC congestion control (RFC 8312): the window grows as
// a cubic function of time since the last congestion event, anchored at the
// window size where loss last occurred (Wmax), with a TCP-friendly region
// so it never does worse than Reno.
type Cubic struct {
	cwnd     float64 // bytes
	ssthresh float64

	// CUBIC state, in segments and seconds as in the RFC.
	wMax       float64  // window before last reduction (segments)
	k          float64  // time to regrow to wMax (seconds)
	epochStart sim.Time // start of the current growth epoch (0 = unset)
	ackCount   float64  // for the TCP-friendly estimate
	wTCP       float64  // Reno-equivalent window (segments)
	lastDecr   float64  // wMax before fast convergence

	acked float64 // fractional increase accumulator

	// HyStart (delay-based) state: Linux CUBIC exits slow start when the
	// per-round minimum RTT rises noticeably above the base RTT,
	// avoiding the huge overshoot of classic slow start.
	hsRoundEnd uint64
	hsRoundMin sim.Duration
	hsBaseRTT  sim.Duration
}

// CUBIC constants from RFC 8312.
const (
	cubicBeta = 0.7
	cubicC    = 0.4
)

func init() { Register("cubic", func() CongestionControl { return NewCubic() }) }

// NewCubic returns a CUBIC instance.
func NewCubic() *Cubic { return &Cubic{} }

// Name implements CongestionControl.
func (cu *Cubic) Name() string { return "cubic" }

// Init implements CongestionControl.
func (cu *Cubic) Init(c Conn) {
	cu.cwnd = float64(10 * c.MSS())
	cu.ssthresh = 1 << 40
}

// OnAck implements CongestionControl.
func (cu *Cubic) OnAck(c Conn, info AckInfo) {
	if info.InRecovery {
		return
	}
	mss := float64(c.MSS())
	if cu.cwnd < cu.ssthresh {
		cu.hystart(c, info)
		cu.cwnd += float64(info.AckedBytes)
		if cu.cwnd > cu.ssthresh {
			cu.cwnd = cu.ssthresh
		}
		return
	}

	now := c.Now()
	if cu.epochStart == 0 {
		cu.epochStart = now
		seg := cu.cwnd / mss
		if cu.wMax < seg {
			cu.wMax = seg
			cu.k = 0
		} else {
			cu.k = math.Cbrt(cu.wMax * (1 - cubicBeta) / cubicC)
		}
		cu.ackCount = 0
		cu.wTCP = seg
	}

	t := (now - cu.epochStart).Seconds()
	rtt := c.SRTT().Seconds()
	// Target window one RTT in the future (RFC 8312 §4.1).
	target := cubicC*math.Pow(t+rtt-cu.k, 3) + cu.wMax

	// TCP-friendly region (RFC 8312 §4.2): estimate the window Reno
	// would have, growing 3(1−β)/(1+β) segments per window acknowledged
	// (the Linux tcp_cubic bookkeeping).
	cu.ackCount += float64(info.AckedBytes) / mss
	seg := cu.cwnd / mss
	delta := seg * (1 + cubicBeta) / (3 * (1 - cubicBeta))
	for cu.ackCount > delta {
		cu.ackCount -= delta
		cu.wTCP++
	}
	if target < cu.wTCP {
		target = cu.wTCP
	}

	if target > seg {
		// Grow toward target: cwnd += (target-cwnd)/cwnd per ACK,
		// scaled by bytes acknowledged.
		inc := (target - seg) / seg * float64(info.AckedBytes)
		cu.cwnd += inc
	} else {
		// Max growth rate is bounded: 1.5x per RTT worth of ACKs.
		cu.cwnd += float64(info.AckedBytes) / (100 * seg) // negligible probe growth
	}
}

// hystart implements the delay-based HyStart heuristic (Ha & Rhee, as in
// Linux tcp_cubic): once per round of delivered data, compare the round's
// minimum RTT against the base RTT; a rise beyond baseRTT/8 means the
// bottleneck queue has started to build, and slow start ends at the
// current window rather than overshooting the buffer.
func (cu *Cubic) hystart(c Conn, info AckInfo) {
	if info.RTT <= 0 {
		return
	}
	if cu.hsBaseRTT == 0 || info.RTT < cu.hsBaseRTT {
		cu.hsBaseRTT = info.RTT
	}
	if cu.hsRoundMin == 0 || info.RTT < cu.hsRoundMin {
		cu.hsRoundMin = info.RTT
	}
	if info.Delivered < cu.hsRoundEnd {
		return
	}
	cu.hsRoundEnd = info.Delivered + uint64(cu.cwnd)
	thresh := cu.hsBaseRTT / 8
	if min := 16 * sim.Microsecond; thresh < min {
		thresh = min
	}
	if cu.hsRoundMin > cu.hsBaseRTT+thresh && cu.cwnd >= 16*float64(c.MSS()) {
		cu.ssthresh = cu.cwnd
	}
	cu.hsRoundMin = 0
}

// OnLoss implements CongestionControl: multiplicative decrease by beta with
// fast convergence (RFC 8312 §4.6).
func (cu *Cubic) OnLoss(c Conn) {
	mss := float64(c.MSS())
	seg := cu.cwnd / mss
	cu.epochStart = 0
	if seg < cu.lastDecr {
		// Fast convergence: release bandwidth faster when the window
		// is shrinking across episodes.
		cu.wMax = seg * (1 + cubicBeta) / 2
	} else {
		cu.wMax = seg
	}
	cu.lastDecr = seg
	cu.cwnd = cu.cwnd * cubicBeta
	if min := float64(2 * c.MSS()); cu.cwnd < min {
		cu.cwnd = min
	}
	cu.ssthresh = cu.cwnd
}

// OnRTO implements CongestionControl.
func (cu *Cubic) OnRTO(c Conn) {
	cu.epochStart = 0
	cu.wMax = cu.cwnd / float64(c.MSS())
	cu.ssthresh = cu.cwnd * cubicBeta
	if min := float64(2 * c.MSS()); cu.ssthresh < min {
		cu.ssthresh = min
	}
	cu.cwnd = float64(c.MSS())
}

// CWnd implements CongestionControl.
func (cu *Cubic) CWnd() float64 { return cu.cwnd }

// PacingRate implements CongestionControl.
func (cu *Cubic) PacingRate() float64 { return 0 }

// ECNCapable implements CongestionControl.
func (cu *Cubic) ECNCapable() bool { return false }

// InSlowStart reports whether the window is below ssthresh (exposed for
// tests and traces).
func (cu *Cubic) InSlowStart() bool { return cu.cwnd < cu.ssthresh }
