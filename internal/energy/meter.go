package energy

import (
	"greenenvy/internal/sim"
)

// Meter integrates one host's energy over simulated time. Networking code
// reports CPU work (core-seconds) as it happens; a periodic Sync — driven by
// the testbed's sampler — converts accumulated work over each interval into
// average utilization, applies the power curve, and accumulates joules.
//
// Averaging within a sync interval is intentional: the paper's own analysis
// treats "sending smoothly at rate x" as a steady utilization, and RAPL
// itself reports energy integrated by the hardware. Sub-interval burstiness
// is below the model's resolution. Intervals of ~1 ms are used by the
// testbed.
type Meter struct {
	Curve PowerCurve
	Costs CostModel

	engine *sim.Engine

	baseUtil float64 // background load (stress), fraction of all cores
	workSec  float64 // core-seconds accumulated since last Sync
	joules   float64
	last     sim.Time

	// cumulative statistics
	totalWorkSec float64
}

// NewMeter creates a meter with the given curve and cost model. The meter
// starts integrating at the engine's current time.
func NewMeter(engine *sim.Engine, curve PowerCurve, costs CostModel) *Meter {
	if err := costs.Validate(); err != nil {
		panic(err)
	}
	return &Meter{Curve: curve, Costs: costs, engine: engine, last: engine.Now()}
}

// SetBaseLoad sets the background compute load as a fraction of total CPU
// capacity in [0,1] (the paper's `stress` tool, §4.2). It syncs first so the
// change applies only going forward.
func (m *Meter) SetBaseLoad(frac float64) {
	if frac < 0 || frac > 1 {
		panic("energy: base load must be in [0,1]")
	}
	m.Sync()
	m.baseUtil = frac
}

// BaseLoad returns the current background load fraction.
func (m *Meter) BaseLoad() float64 { return m.baseUtil }

// AddWork reports coreSeconds of CPU work performed "now".
func (m *Meter) AddWork(coreSeconds float64) {
	if coreSeconds < 0 {
		panic("energy: negative work")
	}
	m.workSec += coreSeconds
	m.totalWorkSec += coreSeconds
}

// Sync integrates energy from the last sync point to the current simulated
// time. It must be called often enough that utilization is roughly constant
// within each interval; the testbed calls it every millisecond and at every
// phase boundary.
func (m *Meter) Sync() { m.SyncAt(m.engine.Now()) }

// SyncAt integrates energy up to the explicit instant t instead of the
// engine clock; Sync is SyncAt at the engine's now. t before the last sync
// point panics — that would erase energy.
func (m *Meter) SyncAt(t sim.Time) {
	dt := t - m.last
	if dt <= 0 {
		if dt < 0 {
			panic("energy: SyncAt before an earlier sync point")
		}
		return
	}
	seconds := dt.Seconds()
	net := m.workSec / (seconds * float64(m.Costs.Cores))
	m.joules += m.Curve.PowerLoaded(m.baseUtil, net) * seconds
	m.workSec = 0
	m.last = t
}

// Joules returns total energy consumed up to the last Sync.
func (m *Meter) Joules() float64 { return m.joules }

// TotalWork returns cumulative core-seconds of networking work reported.
func (m *Meter) TotalWork() float64 { return m.totalWorkSec }

// Account is the callback surface the transport uses to report work to a
// meter, pre-binding the cost model so transport code never sees watts.
// It is a small value: a transport endpoint keeps its own copy, and the
// zero Account, bound to no meter, discards everything, which keeps the
// hot path free of conditionals at call sites.
type Account struct {
	meter   *Meter
	ccaCost float64
}

// NewAccount binds a meter to a flow using the named congestion-control
// algorithm (which determines the per-ACK computation cost). Endpoints copy
// the account they are given, so the result need not outlive their setup.
func NewAccount(m *Meter, ccaName string) *Account {
	return &Account{meter: m, ccaCost: m.Costs.CCACost(ccaName)}
}

// SentData reports transmission of a data segment. outstandingBytes is the
// sender's unacknowledged window at transmit time, which scales the
// memory-pressure component of the cost model.
func (a *Account) SentData(retransmit bool, outstandingBytes int) {
	m := a.meter
	if m == nil {
		return
	}
	w := m.Costs.TxPacket
	if retransmit {
		w += m.Costs.Retransmit
	}
	if outstandingBytes > 0 {
		w += m.Costs.TxWindowMB * float64(outstandingBytes) / (1 << 20)
	}
	m.AddWork(w)
}

// SentAck reports transmission of a pure ACK.
func (a *Account) SentAck() {
	if m := a.meter; m != nil {
		m.AddWork(m.Costs.TxAck)
	}
}

// ReceivedData reports receipt of a data segment.
func (a *Account) ReceivedData() {
	if m := a.meter; m != nil {
		m.AddWork(m.Costs.RxPacket)
	}
}

// ReceivedAck reports receipt and congestion-control processing of an ACK.
func (a *Account) ReceivedAck() {
	if m := a.meter; m != nil {
		m.AddWork(m.Costs.RxAck + a.ccaCost)
	}
}
