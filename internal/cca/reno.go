package cca

// Reno implements classic TCP congestion control (RFC 5681): slow start,
// additive-increase congestion avoidance, and multiplicative decrease on
// loss. Several other algorithms embed it for their slow-start and timeout
// behaviour.
type Reno struct {
	cwnd     float64 // bytes
	ssthresh float64 // bytes
	// acked accumulates bytes for the fractional congestion-avoidance
	// increase.
	acked float64
}

func init() { Register("reno", func() CongestionControl { return NewReno() }) }

// NewReno returns a Reno instance. The window is established in Init.
func NewReno() *Reno { return &Reno{} }

// Name implements CongestionControl.
func (r *Reno) Name() string { return "reno" }

// Init implements CongestionControl: IW = 10 MSS (RFC 6928), ssthresh
// effectively unbounded.
func (r *Reno) Init(c Conn) {
	r.cwnd = float64(10 * c.MSS())
	r.ssthresh = 1 << 40
}

// InSlowStart reports whether the window is below ssthresh.
func (r *Reno) InSlowStart() bool { return r.cwnd < r.ssthresh }

// OnAck implements CongestionControl.
func (r *Reno) OnAck(c Conn, info AckInfo) {
	if info.InRecovery {
		return // window frozen during fast recovery
	}
	mss := float64(c.MSS())
	if r.InSlowStart() {
		// Exponential growth: one MSS per MSS acknowledged.
		r.cwnd += float64(info.AckedBytes)
		if r.cwnd > r.ssthresh {
			r.cwnd = r.ssthresh
		}
		return
	}
	// Congestion avoidance: one MSS per window acknowledged.
	r.acked += float64(info.AckedBytes)
	if r.acked >= r.cwnd {
		r.acked -= r.cwnd
		r.cwnd += mss
	}
}

// OnLoss implements CongestionControl: halve the window.
func (r *Reno) OnLoss(c Conn) {
	r.ssthresh = r.cwnd / 2
	if min := float64(2 * c.MSS()); r.ssthresh < min {
		r.ssthresh = min
	}
	r.cwnd = r.ssthresh
	r.acked = 0
}

// OnRTO implements CongestionControl: collapse to one segment.
func (r *Reno) OnRTO(c Conn) {
	r.ssthresh = r.cwnd / 2
	if min := float64(2 * c.MSS()); r.ssthresh < min {
		r.ssthresh = min
	}
	r.cwnd = float64(c.MSS())
	r.acked = 0
}

// CWnd implements CongestionControl.
func (r *Reno) CWnd() float64 { return r.cwnd }

// PacingRate implements CongestionControl (Reno does not pace).
func (r *Reno) PacingRate() float64 { return 0 }

// ECNCapable implements CongestionControl.
func (r *Reno) ECNCapable() bool { return false }
