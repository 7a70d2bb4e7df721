package netsim

import (
	"math"

	"greenenvy/internal/sim"
)

// Active queue management disciplines. Unlike DropTail/DRR, AQMs need the
// simulation clock: CoDel measures per-packet sojourn time and PIE runs a
// periodic probability update. Rather than widening the Queue interface,
// clock-needing disciplines implement EngineBinder and NewLink binds the
// engine before traffic flows, so topology code keeps passing queues around
// as plain values.

// EngineBinder is implemented by queue disciplines that need the simulation
// clock (sojourn timestamps, periodic control-law updates). NewLink invokes
// it at construction; code that drives such a queue outside a Link must
// call BindEngine itself before the first Enqueue.
type EngineBinder interface {
	BindEngine(e *sim.Engine)
}

// qEntry is a queued packet with its arrival timestamp, the raw material of
// every sojourn-time control law.
type qEntry struct {
	p  *Packet
	at sim.Time
}

// codelCtl is the RFC 8289 control law, shared by CoDel (one instance per
// queue) and FQ-CoDel (one instance per flow queue). ECN-capable packets are
// marked CE and delivered where the law would drop, as in the Linux
// implementation.
type codelCtl struct {
	target   sim.Duration
	interval sim.Duration

	firstAbove sim.Time // 0 = sojourn currently below target
	dropNext   sim.Time
	dropping   bool
	count      uint32
	lastCount  uint32
}

// controlLaw spaces successive drops at interval/sqrt(count) after t.
func (c *codelCtl) controlLaw(t sim.Time) sim.Time {
	return t + sim.Time(float64(c.interval)/math.Sqrt(float64(c.count)))
}

// doDequeue pops the head entry and classifies it: the second return is
// RFC 8289's ok_to_drop — the sojourn time has stayed above target for a
// full interval. qbytes is the discipline's total backlog (decremented
// here); fbytes, when non-nil, is a per-flow backlog decremented alongside
// (FQ-CoDel). The sojourn test is suppressed while the total backlog is at
// most one max-size packet: a line that can't hold two packets isn't
// standing-queue congestion.
func (c *codelCtl) doDequeue(now sim.Time, fifo *ring[qEntry], qbytes, fbytes *int, minBytes int) (*Packet, bool) {
	e := fifo.Pop()
	p, at := e.p, e.at
	if p == nil {
		c.firstAbove = 0
		return nil, false
	}
	*qbytes -= p.WireSize
	if fbytes != nil {
		*fbytes -= p.WireSize
	}
	if now-at < c.target || *qbytes <= minBytes {
		c.firstAbove = 0
		return p, false
	}
	if c.firstAbove == 0 {
		c.firstAbove = now + c.interval
		return p, false
	}
	return p, now >= c.firstAbove
}

// dequeue runs one full RFC 8289 dequeue: pop, update the drop state, and
// return the packet to transmit (nil when the ring is empty or every
// backlogged packet was dropped by the law).
func (c *codelCtl) dequeue(now sim.Time, fifo *ring[qEntry], qbytes, fbytes *int, minBytes int, stats *QueueStats) *Packet {
	p, okToDrop := c.doDequeue(now, fifo, qbytes, fbytes, minBytes)
	if p == nil {
		c.dropping = false
		return nil
	}
	if c.dropping {
		if !okToDrop {
			c.dropping = false
			return p
		}
		for now >= c.dropNext {
			c.count++
			if p.Flags.Has(FlagECT) {
				p.Flags |= FlagCE
				stats.MarkedCE++
				c.dropNext = c.controlLaw(c.dropNext)
				return p
			}
			stats.DroppedPackets++
			stats.DroppedBytes += uint64(p.WireSize)
			c.dropNext = c.controlLaw(c.dropNext)
			p, okToDrop = c.doDequeue(now, fifo, qbytes, fbytes, minBytes)
			if p == nil {
				c.dropping = false
				return nil
			}
			if !okToDrop {
				c.dropping = false
				return p
			}
		}
		return p
	}
	if okToDrop {
		// Enter the dropping state. Resume from the previous drop rate if
		// the last dropping episode was recent (RFC 8289 §5.4).
		c.dropping = true
		delta := c.count - c.lastCount
		if delta > 1 && now-c.dropNext < 16*sim.Time(c.interval) {
			c.count = delta
		} else {
			c.count = 1
		}
		c.lastCount = c.count
		if p.Flags.Has(FlagECT) {
			p.Flags |= FlagCE
			stats.MarkedCE++
			c.dropNext = c.controlLaw(now)
			return p
		}
		stats.DroppedPackets++
		stats.DroppedBytes += uint64(p.WireSize)
		c.dropNext = c.controlLaw(now)
		// The replacement packet goes out regardless; the control law
		// schedules the next drop at dropNext.
		p, _ = c.doDequeue(now, fifo, qbytes, fbytes, minBytes)
		return p
	}
	return p
}

// CoDel default parameters. The RFC's 5 ms / 100 ms are sized for
// internet-scale RTTs; this lab's dumbbell RTT is tens of microseconds, so
// the defaults scale target and interval to the same ratio at
// datacenter timescales.
const (
	// DefaultCoDelTarget is the acceptable standing-queue sojourn time.
	DefaultCoDelTarget = 50 * sim.Microsecond
	// DefaultCoDelInterval is the sliding window in which the sojourn must
	// stay above target before the control law engages.
	DefaultCoDelInterval = 500 * sim.Microsecond
)

// CoDel is the Controlled Delay AQM (RFC 8289) on a single FIFO: it tracks
// each packet's sojourn time through the queue and, when sojourn stays above
// Target for a full Interval, drops (or, for ECN-capable packets, CE-marks)
// at a rate that increases with the square root of the drop count until the
// standing queue dissolves.
type CoDel struct {
	// CapBytes is the hard buffer size backing the AQM; packets arriving
	// when the queue holds CapBytes or more are tail-dropped regardless of
	// the control law (0 = unbounded).
	CapBytes int
	// Target is the acceptable standing sojourn time
	// (0 = DefaultCoDelTarget).
	Target sim.Duration
	// Interval is the control-law window (0 = DefaultCoDelInterval).
	Interval sim.Duration

	engine  *sim.Engine
	ring    ring[qEntry]
	bytes   int
	maxWire int // largest packet seen; the "one MTU" floor for the law
	ctl     codelCtl
	stats   QueueStats
}

// NewCoDel returns a CoDel queue with the given byte capacity (0 =
// unbounded) and target/interval (0 = datacenter-scaled defaults). The
// engine is bound by NewLink via EngineBinder.
func NewCoDel(capBytes int, target, interval sim.Duration) *CoDel {
	if target == 0 {
		target = DefaultCoDelTarget
	}
	if interval == 0 {
		interval = DefaultCoDelInterval
	}
	return &CoDel{
		CapBytes: capBytes,
		Target:   target,
		Interval: interval,
		ctl:      codelCtl{target: target, interval: interval},
	}
}

// BindEngine implements EngineBinder.
func (q *CoDel) BindEngine(e *sim.Engine) { q.engine = e }

// Enqueue implements Queue: admission is plain tail-drop against CapBytes;
// the control law acts at dequeue time on the recorded arrival stamp.
func (q *CoDel) Enqueue(p *Packet) bool {
	if q.CapBytes > 0 && q.bytes+p.WireSize > q.CapBytes {
		q.stats.DroppedPackets++
		q.stats.DroppedBytes += uint64(p.WireSize)
		return false
	}
	if p.WireSize > q.maxWire {
		q.maxWire = p.WireSize
	}
	q.ring.Push(qEntry{p: p, at: q.engine.Now()})
	q.bytes += p.WireSize
	q.stats.EnqueuedPackets++
	if q.bytes > q.stats.MaxBytes {
		q.stats.MaxBytes = q.bytes
	}
	return true
}

// Dequeue implements Queue.
func (q *CoDel) Dequeue() *Packet {
	return q.ctl.dequeue(q.engine.Now(), &q.ring, &q.bytes, nil, q.maxWire, &q.stats)
}

// Len implements Queue.
func (q *CoDel) Len() int { return q.ring.Len() }

// Bytes implements Queue.
func (q *CoDel) Bytes() int { return q.bytes }

// Stats implements Queue.
func (q *CoDel) Stats() QueueStats { return q.stats }
