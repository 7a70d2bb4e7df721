package cca

import (
	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
)

// HPCC implements High Precision Congestion Control (Li et al., SIGCOMM
// 2019) — the third §5 production algorithm. HPCC senders receive in-band
// network telemetry (per-hop queue depth and transmitted-byte counters)
// echoed on every ACK, compute each hop's exact utilization
//
//	U = qlen/(B·T) + txRate/B
//
// and set the window multiplicatively toward W = W_old/(maxU/η) + W_ai,
// with η = 95% target utilization. The result is near-zero queueing with
// line-rate throughput.
type HPCC struct {
	cwnd    float64
	wAI     float64
	eta     float64
	baseRTT sim.Duration
	mss     float64

	// prev remembers the last telemetry per hop index for tx-rate
	// computation.
	prev []netsim.INTHop
	// lastUpdate gates the multiplicative reference update to once per
	// RTT (the paper's W^c bookkeeping, simplified).
	lastUpdate sim.Time
	refCwnd    float64
}

func init() { Register("hpcc", func() CongestionControl { return NewHPCC() }) }

// NewHPCC returns an HPCC instance.
func NewHPCC() *HPCC { return &HPCC{} }

// Name implements CongestionControl.
func (h *HPCC) Name() string { return "hpcc" }

// NeedsINT implements INTConsumer: HPCC requires per-hop telemetry.
func (h *HPCC) NeedsINT() bool { return true }

// Init implements CongestionControl.
func (h *HPCC) Init(c Conn) {
	h.mss = float64(c.MSS())
	h.cwnd = 16 * h.mss
	h.refCwnd = h.cwnd
	h.eta = 0.95
	h.wAI = h.mss / 2
}

// utilization computes the bottleneck utilization from consecutive INT
// snapshots.
func (h *HPCC) utilization(hops []netsim.INTHop) (float64, bool) {
	if len(h.prev) != len(hops) {
		h.prev = append([]netsim.INTHop(nil), hops...)
		return 0, false
	}
	if h.baseRTT == 0 {
		return 0, false
	}
	tau := h.baseRTT.Seconds()
	maxU := 0.0
	for i, hop := range hops {
		p := h.prev[i]
		dt := (hop.At - p.At).Seconds()
		if dt <= 0 {
			continue
		}
		bps := float64(hop.RateBps)
		txRate := float64(hop.TxBytes-p.TxBytes) * 8 / dt
		u := float64(hop.QueueBytes*8)/(bps*tau) + txRate/bps
		if u > maxU {
			maxU = u
		}
	}
	h.prev = append(h.prev[:0], hops...)
	return maxU, maxU > 0
}

// OnAck implements CongestionControl.
func (h *HPCC) OnAck(c Conn, info AckInfo) {
	if info.RTT > 0 && (h.baseRTT == 0 || info.RTT < h.baseRTT) {
		h.baseRTT = info.RTT
	}
	u, ok := h.utilization(info.INT)
	if !ok {
		return
	}
	now := c.Now()
	target := h.refCwnd
	if u > 0 {
		target = h.refCwnd / (u / h.eta)
	}
	next := target + h.wAI
	// Bound a single adjustment so telemetry glitches cannot collapse or
	// explode the window.
	if next < h.cwnd/2 {
		next = h.cwnd / 2
	}
	if next > 2*h.cwnd {
		next = 2 * h.cwnd
	}
	if min := 2 * h.mss; next < min {
		next = min
	}
	h.cwnd = next
	// Update the multiplicative reference once per RTT.
	if now-h.lastUpdate >= c.SRTT() {
		h.refCwnd = h.cwnd
		h.lastUpdate = now
	}
}

// OnLoss implements CongestionControl (rare under HPCC: the 95% target
// keeps queues near empty).
func (h *HPCC) OnLoss(c Conn) {
	h.cwnd /= 2
	if min := 2 * h.mss; h.cwnd < min {
		h.cwnd = min
	}
	h.refCwnd = h.cwnd
}

// OnRTO implements CongestionControl.
func (h *HPCC) OnRTO(c Conn) {
	h.cwnd = h.mss
	h.refCwnd = h.cwnd
}

// CWnd implements CongestionControl.
func (h *HPCC) CWnd() float64 { return h.cwnd }

// PacingRate implements CongestionControl: HPCC paces at cwnd/baseRTT.
func (h *HPCC) PacingRate() float64 {
	if h.baseRTT == 0 {
		return 0
	}
	return h.cwnd * 8 / h.baseRTT.Seconds()
}

// ECNCapable implements CongestionControl.
func (h *HPCC) ECNCapable() bool { return false }
