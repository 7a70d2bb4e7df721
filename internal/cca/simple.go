package cca

import "math"

// This file holds the three "Reno with a different response function"
// algorithms the paper measures: Scalable TCP, HighSpeed TCP, and TCP
// Westwood — plus the paper's constant-cwnd baseline module.

// Scalable implements Scalable TCP (Kelly, CCR 2003): cwnd += 0.01 per
// acknowledged segment, multiplicative decrease by 1/8. Its recovery time
// from a loss is invariant in the window size.
type Scalable struct {
	Reno
}

func init() { Register("scalable", func() CongestionControl { return &Scalable{} }) }

// Name implements CongestionControl.
func (s *Scalable) Name() string { return "scalable" }

// OnAck implements CongestionControl.
func (s *Scalable) OnAck(c Conn, info AckInfo) {
	if info.InRecovery {
		return
	}
	if s.InSlowStart() {
		s.Reno.OnAck(c, info)
		return
	}
	// a = 0.01 per acked segment.
	s.cwnd += 0.01 * float64(info.AckedBytes)
}

// OnLoss implements CongestionControl: b = 0.125.
func (s *Scalable) OnLoss(c Conn) {
	s.cwnd *= 1 - 0.125
	if min := float64(2 * c.MSS()); s.cwnd < min {
		s.cwnd = min
	}
	s.ssthresh = s.cwnd
}

// HighSpeed implements HighSpeed TCP (RFC 3649): the AIMD increase a(w) and
// decrease b(w) depend on the current window so large windows grow faster
// and back off less, while windows below 38 segments behave exactly like
// Reno.
type HighSpeed struct {
	Reno
	acked float64
}

func init() { Register("highspeed", func() CongestionControl { return &HighSpeed{} }) }

// Name implements CongestionControl.
func (h *HighSpeed) Name() string { return "highspeed" }

// hsLowWindow and hsHighWindow bound the RFC 3649 response function.
const (
	hsLowWindow  = 38.0
	hsHighWindow = 83000.0
	hsHighB      = 0.1
)

// hsB returns the decrease factor b(w) per RFC 3649 §5.
func hsB(w float64) float64 {
	if w <= hsLowWindow {
		return 0.5
	}
	if w >= hsHighWindow {
		return hsHighB
	}
	return (hsHighB-0.5)*(math.Log(w)-math.Log(hsLowWindow))/(math.Log(hsHighWindow)-math.Log(hsLowWindow)) + 0.5
}

// hsA returns the increase a(w) in segments per window per RFC 3649 §5:
// a(w) = w² · p(w) · 2·b(w) / (2−b(w)), with p(w) = 0.078 / w^1.2.
func hsA(w float64) float64 {
	if w <= hsLowWindow {
		return 1
	}
	b := hsB(w)
	p := 0.078 / math.Pow(w, 1.2)
	return w * w * p * 2 * b / (2 - b)
}

// OnAck implements CongestionControl.
func (h *HighSpeed) OnAck(c Conn, info AckInfo) {
	if info.InRecovery {
		return
	}
	if h.InSlowStart() {
		h.Reno.OnAck(c, info)
		return
	}
	mss := float64(c.MSS())
	w := h.cwnd / mss
	h.acked += float64(info.AckedBytes)
	if h.acked >= h.cwnd {
		h.acked -= h.cwnd
		h.cwnd += hsA(w) * mss
	}
}

// OnLoss implements CongestionControl.
func (h *HighSpeed) OnLoss(c Conn) {
	w := h.cwnd / float64(c.MSS())
	h.cwnd *= 1 - hsB(w)
	if min := float64(2 * c.MSS()); h.cwnd < min {
		h.cwnd = min
	}
	h.ssthresh = h.cwnd
}

// Westwood implements TCP Westwood+ (Gerla et al., GLOBECOM 2001): Reno-style
// growth, but on loss the window is set to the estimated
// bandwidth-delay product rather than halved, using an EWMA bandwidth
// estimate from ACK arrivals.
type Westwood struct {
	Reno
	bwEst    float64 // bytes/second, EWMA
	bwSample float64
	lastAck  float64 // seconds of last bandwidth sample
	ackedAcc float64
}

func init() { Register("westwood", func() CongestionControl { return &Westwood{} }) }

// Name implements CongestionControl.
func (w *Westwood) Name() string { return "westwood" }

// OnAck implements CongestionControl.
func (w *Westwood) OnAck(c Conn, info AckInfo) {
	now := c.Now().Seconds()
	w.ackedAcc += float64(info.AckedBytes)
	// Sample bandwidth at most every SRTT/4 to filter ACK compression.
	minGap := c.SRTT().Seconds() / 4
	if minGap <= 0 {
		minGap = 50e-6
	}
	if dt := now - w.lastAck; dt >= minGap {
		sample := w.ackedAcc / dt
		// Westwood+ low-pass filter.
		w.bwEst = 0.9*w.bwEst + 0.1*sample
		w.ackedAcc = 0
		w.lastAck = now
	}
	w.Reno.OnAck(c, info)
}

// OnLoss implements CongestionControl: cwnd = BWE × RTTmin.
func (w *Westwood) OnLoss(c Conn) {
	bdp := w.bwEst * c.MinRTT().Seconds()
	if min := float64(2 * c.MSS()); bdp < min {
		bdp = min
	}
	w.ssthresh = bdp
	if w.cwnd > bdp {
		w.cwnd = bdp
	}
	w.acked = 0
}

// OnRTO implements CongestionControl.
func (w *Westwood) OnRTO(c Conn) {
	bdp := w.bwEst * c.MinRTT().Seconds()
	if min := float64(2 * c.MSS()); bdp < min {
		bdp = min
	}
	w.ssthresh = bdp
	w.cwnd = float64(c.MSS())
	w.acked = 0
}

// Baseline is the paper's custom kernel module: "a large, constant cwnd
// value ... running the same logic for other TCP mechanisms, i.e.,
// retransmission timeouts, selective acknowledgments, and loss recovery"
// (§3). It performs no congestion computation whatsoever, which makes the
// sender bursty, fills queues, and drives up retransmissions — the paper's
// Figures 5 and 8 show it costing 8.2–14.2% more energy than real CCAs.
//
// Like the paper's module, it must never be used with multiple competing
// flows: it would produce congestion collapse.
type Baseline struct {
	cwnd float64
}

func init() { Register("baseline", func() CongestionControl { return &Baseline{} }) }

// BaselineCwndBytes is the constant window: 25 MB, far above any BDP in the
// testbed.
const BaselineCwndBytes = 25 << 20

// Name implements CongestionControl.
func (b *Baseline) Name() string { return "baseline" }

// Init implements CongestionControl.
func (b *Baseline) Init(c Conn) { b.cwnd = BaselineCwndBytes }

// OnAck implements CongestionControl (no computation, by design).
func (b *Baseline) OnAck(c Conn, info AckInfo) {}

// OnLoss implements CongestionControl (ignores loss, by design).
func (b *Baseline) OnLoss(c Conn) {}

// OnRTO implements CongestionControl (even timeouts do not move the window).
func (b *Baseline) OnRTO(c Conn) {}

// CWnd implements CongestionControl.
func (b *Baseline) CWnd() float64 { return b.cwnd }

// PacingRate implements CongestionControl.
func (b *Baseline) PacingRate() float64 { return 0 }

// ECNCapable implements CongestionControl.
func (b *Baseline) ECNCapable() bool { return false }
