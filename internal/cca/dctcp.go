package cca

// DCTCP implements Data Center TCP (Alizadeh et al., SIGCOMM 2010; RFC
// 8257). The switch marks packets when its instantaneous queue exceeds K;
// the receiver echoes marks precisely; the sender maintains an EWMA α of
// the marked fraction per window and scales cwnd by (1 − α/2) once per
// round trip. On a clean network DCTCP keeps the queue near K with no loss.
type DCTCP struct {
	Reno // slow start / RTO behaviour

	alpha       float64
	ackedBytes  float64 // bytes acked in the current observation window
	markedBytes float64 // of which ECE-marked
	windowEnd   uint64  // delivered count at which the window ends
	reducedThis bool    // at most one ECN reduction per window
}

// dctcpG is the EWMA gain (RFC 8257 recommends 1/16).
const dctcpG = 1.0 / 16

func init() { Register("dctcp", func() CongestionControl { return NewDCTCP() }) }

// NewDCTCP returns a DCTCP instance.
func NewDCTCP() *DCTCP { return &DCTCP{} }

// Name implements CongestionControl.
func (d *DCTCP) Name() string { return "dctcp" }

// ECNCapable implements CongestionControl: DCTCP requires ECT marking and
// precise ECE feedback.
func (d *DCTCP) ECNCapable() bool { return true }

// OnAck implements CongestionControl.
func (d *DCTCP) OnAck(c Conn, info AckInfo) {
	d.ackedBytes += float64(info.AckedBytes)
	if info.ECE {
		d.markedBytes += float64(info.AckedBytes)
	}

	if info.Delivered >= d.windowEnd {
		// One observation window (≈ one RTT of delivered data) ended:
		// update α and apply at most one reduction.
		if d.ackedBytes > 0 {
			frac := d.markedBytes / d.ackedBytes
			d.alpha = (1-dctcpG)*d.alpha + dctcpG*frac
		}
		if d.markedBytes > 0 {
			d.cwnd *= 1 - d.alpha/2
			if min := float64(2 * c.MSS()); d.cwnd < min {
				d.cwnd = min
			}
			d.ssthresh = d.cwnd
		}
		d.ackedBytes, d.markedBytes = 0, 0
		d.windowEnd = info.Delivered + uint64(d.cwnd)
	}

	if info.ECE && d.InSlowStart() {
		// Leave slow start on the first mark.
		d.ssthresh = d.cwnd
		return
	}
	d.Reno.OnAck(c, info)
}

// Alpha exposes the congestion estimate for tests and traces.
func (d *DCTCP) Alpha() float64 { return d.alpha }
