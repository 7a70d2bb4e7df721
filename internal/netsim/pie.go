package netsim

import "greenenvy/internal/sim"

// PIE default parameters, scaled like CoDel's from the RFC's internet-scale
// values (15 ms / 16 ms) to this lab's microsecond RTTs.
const (
	// DefaultPIETarget is the queueing-delay reference the controller
	// steers toward.
	DefaultPIETarget = 50 * sim.Microsecond
	// DefaultPIETUpdate is the drop-probability update period.
	DefaultPIETUpdate = 500 * sim.Microsecond
)

// PIE proportional-integral controller gains. RFC 8033 fixes alpha/beta in
// Hz against millisecond-scale delays; here the error terms are normalized
// by Target instead, which keeps the controller's response invariant under
// the datacenter timescale compression (a deliberate deviation, mirroring
// how the CoDel defaults are rescaled).
const (
	pieAlpha = 0.125 // integral gain on (qdelay - Target)/Target
	pieBeta  = 1.25  // proportional gain on (qdelay - qdelayOld)/Target
)

// PIE is the Proportional Integral controller Enhanced AQM (RFC 8033): a
// FIFO whose admission control drops (or CE-marks) arriving packets with a
// probability steered by a PI controller toward a target queueing delay.
// Queueing delay is estimated from the backlog and the configured drain
// rate (the RFC's basic estimator), and the probability update runs lazily
// at enqueue time once per TUpdate — between arrivals there is nothing to
// admit, so a dedicated timer would only burn events.
//
// The random admission draws come from a private sim.RNG seeded at
// construction, so runs are deterministic and independent of every other
// consumer of randomness in the experiment.
type PIE struct {
	// CapBytes is the hard buffer size (0 = unbounded); arrivals beyond it
	// are tail-dropped regardless of the controller.
	CapBytes int
	// RateBps is the port's drain rate, used to turn backlog bytes into a
	// queueing-delay estimate. Required (the constructor panics on 0).
	RateBps int64
	// Target is the queueing-delay reference (0 = DefaultPIETarget).
	Target sim.Duration
	// TUpdate is the probability update period (0 = DefaultPIETUpdate).
	TUpdate sim.Duration

	engine     *sim.Engine
	rng        *sim.RNG
	pkts       ring[*Packet]
	bytes      int
	maxWire    int
	dropProb   float64
	qdelayOld  sim.Duration
	nextUpdate sim.Time
	stats      QueueStats
}

// NewPIE returns a PIE queue draining at rateBps with the given byte
// capacity (0 = unbounded), target/tUpdate (0 = datacenter-scaled
// defaults), and admission-draw seed. The engine is bound by NewLink via
// EngineBinder.
func NewPIE(capBytes int, rateBps int64, target, tUpdate sim.Duration, seed uint64) *PIE {
	if rateBps <= 0 {
		panic("netsim: PIE requires a positive drain rate")
	}
	if target == 0 {
		target = DefaultPIETarget
	}
	if tUpdate == 0 {
		tUpdate = DefaultPIETUpdate
	}
	return &PIE{
		CapBytes: capBytes,
		RateBps:  rateBps,
		Target:   target,
		TUpdate:  tUpdate,
		rng:      sim.NewRNG(seed),
	}
}

// BindEngine implements EngineBinder.
func (q *PIE) BindEngine(e *sim.Engine) { q.engine = e }

// update advances the PI controller one TUpdate step (RFC 8033 §4.2).
func (q *PIE) update(now sim.Time) {
	qdelay := sim.Duration(int64(q.bytes) * 8 * int64(sim.Second) / q.RateBps)
	t := float64(q.Target)
	p := pieAlpha*(float64(qdelay)-t)/t + pieBeta*(float64(qdelay)-float64(q.qdelayOld))/t
	// Auto-tune: scale the adjustment down while the probability is small
	// so the controller stays stable near zero (RFC 8033 §5.2).
	switch {
	case q.dropProb < 0.000001:
		p /= 2048
	case q.dropProb < 0.00001:
		p /= 512
	case q.dropProb < 0.0001:
		p /= 128
	case q.dropProb < 0.001:
		p /= 32
	case q.dropProb < 0.01:
		p /= 8
	case q.dropProb < 0.1:
		p /= 2
	}
	q.dropProb += p
	// Decay the probability exponentially when the queue has drained.
	if qdelay == 0 && q.qdelayOld == 0 {
		q.dropProb *= 0.98
	}
	if q.dropProb < 0 {
		q.dropProb = 0
	} else if q.dropProb > 1 {
		q.dropProb = 1
	}
	q.qdelayOld = qdelay
	q.nextUpdate = now + q.TUpdate
}

// Enqueue implements Queue: run any due controller update, then admit,
// drop, or CE-mark per the current probability (RFC 8033 §4.1). ECN-capable
// packets are marked instead of dropped while the probability is below 10%;
// above that the queue is in real trouble and even ECT packets drop.
func (q *PIE) Enqueue(p *Packet) bool {
	now := q.engine.Now()
	if now >= q.nextUpdate {
		q.update(now)
	}
	if q.CapBytes > 0 && q.bytes+p.WireSize > q.CapBytes {
		q.stats.DroppedPackets++
		q.stats.DroppedBytes += uint64(p.WireSize)
		return false
	}
	if p.WireSize > q.maxWire {
		q.maxWire = p.WireSize
	}
	// Safeguards: never drop while the backlog is under two max-size
	// packets, and leave a near-idle queue alone.
	random := q.dropProb > 0 && q.bytes >= 2*q.maxWire &&
		!(q.qdelayOld < q.Target/2 && q.dropProb < 0.2)
	if random && q.rng.Float64() < q.dropProb {
		if q.dropProb < 0.1 && p.Flags.Has(FlagECT) {
			p.Flags |= FlagCE
			q.stats.MarkedCE++
		} else {
			q.stats.DroppedPackets++
			q.stats.DroppedBytes += uint64(p.WireSize)
			return false
		}
	}
	q.pkts.Push(p)
	q.bytes += p.WireSize
	q.stats.EnqueuedPackets++
	if q.bytes > q.stats.MaxBytes {
		q.stats.MaxBytes = q.bytes
	}
	return true
}

// Dequeue implements Queue: plain FIFO — all of PIE's intelligence is at
// admission.
func (q *PIE) Dequeue() *Packet {
	p := q.pkts.Pop()
	if p == nil {
		return nil
	}
	q.bytes -= p.WireSize
	return p
}

// Len implements Queue.
func (q *PIE) Len() int { return q.pkts.Len() }

// Bytes implements Queue.
func (q *PIE) Bytes() int { return q.bytes }

// Stats implements Queue.
func (q *PIE) Stats() QueueStats { return q.stats }
