package cca

import "greenenvy/internal/sim"

// DCQCN implements the RDMA congestion control of Zhu et al. (SIGCOMM
// 2015) at the fidelity the testbed needs — another of the §5 production
// algorithms. DCQCN is rate-based: ECN marks at the switch become CNPs at
// the sender, which cuts its sending rate by a factor derived from an EWMA
// congestion estimate α, then recovers through fast-recovery (binary
// search back to the target rate) and additive-increase stages. We realize
// the rate through the transport's pacer, with a generous window so pacing
// is the binding control.
type DCQCN struct {
	rateBps   float64 // current rate RC (bits/second)
	targetBps float64 // target rate RT
	alpha     float64
	lineRate  float64
	mss       float64

	lastCNP     sim.Time
	lastAlphaUp sim.Time
	lastInc     sim.Time
	fastSteps   int
}

// DCQCN parameters (from the paper's defaults, timescales kept).
const (
	dcqcnG       = 1.0 / 256
	dcqcnAlphaT  = 55 * sim.Microsecond // alpha-update timer
	dcqcnIncT    = 55 * sim.Microsecond // rate-increase timer (paper: 55µs byte counter analogue)
	dcqcnRaiBps  = 40e6 * 8             // additive increase: 40 MB/s
	dcqcnMinRate = 10e6 * 8             // 10 MB/s floor
)

func init() { Register("dcqcn", func() CongestionControl { return NewDCQCN() }) }

// NewDCQCN returns a DCQCN instance.
func NewDCQCN() *DCQCN { return &DCQCN{} }

// Name implements CongestionControl.
func (d *DCQCN) Name() string { return "dcqcn" }

// Init implements CongestionControl.
func (d *DCQCN) Init(c Conn) {
	d.mss = float64(c.MSS())
	// RDMA NICs start at line rate; our hosts' bonded NICs give 20 Gb/s,
	// but the known fabric is 10 Gb/s.
	d.lineRate = 10e9
	d.rateBps = d.lineRate
	d.targetBps = d.lineRate
	d.alpha = 1
}

// OnAck implements CongestionControl. An ECE-marked ACK plays the role of
// a CNP.
func (d *DCQCN) OnAck(c Conn, info AckInfo) {
	now := c.Now()
	if info.ECE {
		if now-d.lastCNP >= 50*sim.Microsecond { // CNP pacing interval
			d.lastCNP = now
			d.targetBps = d.rateBps
			d.rateBps *= 1 - d.alpha/2
			if d.rateBps < dcqcnMinRate {
				d.rateBps = dcqcnMinRate
			}
			d.alpha = (1-dcqcnG)*d.alpha + dcqcnG
			d.lastAlphaUp = now
			d.fastSteps = 0
			d.lastInc = now
		}
		return
	}
	// Alpha decays while no CNPs arrive.
	if now-d.lastAlphaUp >= dcqcnAlphaT {
		d.alpha *= 1 - dcqcnG
		d.lastAlphaUp = now
	}
	// Rate recovery.
	if now-d.lastInc >= dcqcnIncT {
		d.lastInc = now
		if d.fastSteps < 5 {
			// Fast recovery: binary search toward the target.
			d.fastSteps++
		} else {
			// Additive increase raises the target.
			d.targetBps += dcqcnRaiBps
			if d.targetBps > d.lineRate {
				d.targetBps = d.lineRate
			}
		}
		d.rateBps = (d.rateBps + d.targetBps) / 2
	}
}

// OnLoss implements CongestionControl. DCQCN assumes a lossless (PFC)
// fabric and defines no loss response; on this testbed's lossy paths a
// drop must cut harder than a CNP would (α decays toward zero between
// CNPs, so the CNP formula alone barely reacts). We halve, the
// conventional fallback.
func (d *DCQCN) OnLoss(c Conn) {
	d.targetBps = d.rateBps
	d.rateBps /= 2
	if d.rateBps < dcqcnMinRate {
		d.rateBps = dcqcnMinRate
	}
	d.alpha = (1-dcqcnG)*d.alpha + dcqcnG
	d.fastSteps = 0
}

// OnRTO implements CongestionControl.
func (d *DCQCN) OnRTO(c Conn) {
	d.rateBps = dcqcnMinRate
	d.targetBps = dcqcnMinRate
}

// CWnd implements CongestionControl: rate-based, so the window just needs
// to keep the pacer busy (2× the line-rate BDP at a generous RTT bound).
func (d *DCQCN) CWnd() float64 {
	return 2 * d.lineRate / 8 * 1e-3 // 2 × (line rate × 1 ms)
}

// PacingRate implements CongestionControl.
func (d *DCQCN) PacingRate() float64 { return d.rateBps }

// ECNCapable implements CongestionControl: DCQCN requires ECN marking.
func (d *DCQCN) ECNCapable() bool { return true }
