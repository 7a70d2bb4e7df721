package testbed

import (
	"fmt"

	"greenenvy/internal/energy"
	"greenenvy/internal/iperf"
	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
	"greenenvy/internal/stats"
)

// This file is the streaming churn driver: replaying an open-loop arrival
// process of 10^5–10^6 flows through one testbed. Three things distinguish
// it from the batch Run path:
//
//   - Flows come from a pull-based FlowStream, one at a time; RunStream
//     holds only the arrivals the admission policy defers, in an
//     arrivalFIFO of 32 bytes per waiting arrival. Fair admission defers
//     none, so its memory stays bounded; an envy run whose arrivals
//     outpace its admitted flows can hold most of its schedule there.
//   - Flow state (TCP sender/receiver, iperf client, congestion
//     controller) is recycled through a free list at completion; after
//     warm-up a flow's setup and teardown allocate nothing.
//   - Per-flow results fold into O(1) streaming aggregates (an online
//     accumulator and a P² quantile sketch) instead of retained Reports.
//
// An Admission policy decides at each arrival whether the flow starts now
// or waits — the paper's envy scheduler run online: with a strictly
// concave host power curve, running flows serially (admission width 1) is
// more energy-efficient than fair sharing, at a P99 flow-completion-time
// cost this driver quantifies.

// FlowArrival is one flow of an open-loop arrival process. Src and Dst are
// host indices: fat-tree node IDs, or — on the dumbbell — Src is the
// sender index and Dst is ignored (the dumbbell has one receiver).
type FlowArrival struct {
	At    sim.Time
	Bytes uint64
	Src   int
	Dst   int
}

// FlowStream produces arrivals in nondecreasing At order. Implementations
// must be deterministic: the driver consumes the stream exactly once, in
// order, interleaving no other randomness.
type FlowStream interface {
	Next() (FlowArrival, bool)
}

// FlowStreamFunc adapts a pull function (e.g. a closure over
// workload.Stream.Next) to FlowStream.
type FlowStreamFunc func() (FlowArrival, bool)

// Next implements FlowStream.
func (f FlowStreamFunc) Next() (FlowArrival, bool) { return f() }

// Admission decides, at each arrival and each completion, whether another
// flow may start while `active` flows are already running. Deferred flows
// wait in FIFO order; the policy must be a pure function of its arguments
// (the determinism contract).
type Admission interface {
	// Admit reports whether a flow may start alongside `active` running
	// flows.
	Admit(active int) bool
	// Name identifies the policy in reports and cache identities.
	Name() string
}

// FairAdmission starts every flow on arrival: flows share the fabric, as
// under ordinary congestion control. The baseline the envy policy is
// compared against.
type FairAdmission struct{}

// Admit implements Admission.
func (FairAdmission) Admit(int) bool { return true }

// Name implements Admission.
func (FairAdmission) Name() string { return "fair" }

// EnvyAdmission caps concurrency at MaxActive, deferring later arrivals —
// the paper's envy/serialization schedule as an online admission policy.
type EnvyAdmission struct {
	MaxActive int
}

// Admit implements Admission.
func (e EnvyAdmission) Admit(active int) bool { return active < e.MaxActive }

// Name implements Admission.
func (e EnvyAdmission) Name() string { return "envy" }

// NewEnvyAdmission derives the widest admission that still saves energy
// under the model's power curve: the largest n for which n hosts each
// carrying 1/n of one full-rate flow's utilization u1 draw no more power
// than one host at u1 plus n−1 idle hosts. For a strictly concave curve
// (Theorem 1's premise) that yields n = 1 — full serialization, exactly
// the paper's envy schedule — but the derivation keeps the policy honest
// against any calibrated curve rather than hardcoding the answer.
func NewEnvyAdmission(model energy.Model, linkBps float64, payloadBytes int, ccaName string) EnvyAdmission {
	u1 := model.SenderUtilization(linkBps, payloadBytes, ccaName)
	idle := model.Curve.PowerAt(0)
	serial := model.Curve.PowerAt(u1)
	width := 1
	for n := 2; n <= 64; n++ {
		fair := float64(n) * model.Curve.PowerAt(u1/float64(n))
		if fair <= serial+float64(n-1)*idle {
			width = n
		} else {
			break
		}
	}
	return EnvyAdmission{MaxActive: width}
}

// StreamResult is the outcome of one streaming run: O(1)-size aggregates
// in place of Run's per-flow Reports. It is the gob-cached unit of the
// workload-scale experiment, so its shape is part of the cache schema.
type StreamResult struct {
	// Flows and Bytes count completed flows and their payload bytes.
	Flows uint64
	Bytes uint64
	// Deferred counts flows the admission policy delayed past their
	// arrival; MaxQueue is the peak length of that wait queue; MaxActive
	// is the peak number of concurrently running flows.
	Deferred  uint64
	MaxQueue  int
	MaxActive int
	// MeanFCT/P99FCT/MaxFCT summarize flow sojourn times in seconds —
	// arrival to completion, admission queueing included (that is the
	// latency an envy schedule trades for energy). P99FCT is the P²
	// sketch estimate.
	MeanFCT float64
	P99FCT  float64
	MaxFCT  float64
	// Energy bracketing, as in RunResult.
	TotalSenderJ    float64
	ReceiverEnergyJ float64
	Duration        sim.Duration
	AvgSenderPowerW float64
	// Transport counters summed over all flows.
	Retransmits uint64
	Timeouts    uint64
	EventsFired uint64
	// Pool telemetry: distinct clients ever built, flows served by a
	// recycled client, and clients dropped because their receive path had
	// not drained at completion.
	PoolSize     int
	PoolReuses   uint64
	PoolDiscards uint64
}

// EnergyPerGB returns sender joules per gigabyte delivered.
func (r StreamResult) EnergyPerGB() float64 {
	if r.Bytes == 0 {
		return 0
	}
	return r.TotalSenderJ / (float64(r.Bytes) / 1e9)
}

// pooledClient is one free-list entry: a client plus its prebound
// completion hook (bound once, so recycling a flow re-registers the same
// closure instead of minting one per flow).
type pooledClient struct {
	c    *iperf.Client
	done func(*iperf.Client)
	// arrival the entry is currently serving.
	arrivedAt sim.Time
	bytes     uint64
	flow      netsim.FlowID
}

// streamRun is the per-RunStream driver state.
type streamRun struct {
	tb      *Testbed
	stream  FlowStream
	ccaName string
	adm     Admission

	free []*pooledClient // LIFO free list

	// pending holds deferred arrivals in arrival order.
	pending arrivalFIFO

	arrival     sim.Timer[streamRun]
	nextArrival FlowArrival
	exhausted   bool

	active   int
	nextFlow netsim.FlowID

	fct stats.QuantileSketch
	acc stats.Accumulator
	res StreamResult

	finished bool
	err      error
}

// RunStream replays an open-loop arrival stream through the testbed with
// pooled flow lifecycles and streaming aggregation, bracketing energy
// exactly as Run does. All flows use the named congestion-control
// algorithm; adm decides start-now vs defer per flow. The run fails if the
// stream has not drained by the deadline.
func (tb *Testbed) RunStream(stream FlowStream, ccaName string, adm Admission, deadline sim.Duration) (StreamResult, error) {
	if tb.ran {
		return StreamResult{}, fmt.Errorf("testbed: RunStream called twice; build a fresh testbed per run")
	}
	tb.ran = true
	if adm == nil {
		adm = FairAdmission{}
	}

	sr := &streamRun{
		tb:       tb,
		stream:   stream,
		ccaName:  ccaName,
		adm:      adm,
		nextFlow: 1,
		fct:      *stats.NewQuantileSketch(0.99),
	}
	sr.arrival.Init(tb.Engine, sr, (*streamRun).onArrival)

	// Bracket the measurement exactly as Run does, pulling the first
	// arrival to arm the clock. Meters a fat-tree stream first touches
	// mid-run are bracketed from first use (their hosts were idle
	// before); callers wanting full-window bracketing for every host
	// should TouchHost them first.
	tb.measure(deadline, sr.advance, func() bool { return sr.finished })

	if sr.err != nil {
		return StreamResult{}, sr.err
	}
	if !sr.finished {
		return StreamResult{}, fmt.Errorf("testbed: stream incomplete at deadline %v (%d active, %d queued, exhausted=%v)",
			deadline, sr.active, sr.queueLen(), sr.exhausted)
	}
	return sr.res, nil
}

// TouchHost registers a host's energy meter (as sender or receiver) before
// the run, so RunStream's measurement brackets it from run start rather
// than from its first flow. The dumbbell registers every host's meter
// when it is built.
func (tb *Testbed) TouchHost(host netsim.NodeID, sender bool) { tb.meterFor(host, sender) }

// advance pulls the next arrival from the stream and arms the arrival
// timer for it; on exhaustion it checks for run completion.
func (sr *streamRun) advance() {
	if sr.finished {
		return
	}
	f, ok := sr.stream.Next()
	if !ok {
		sr.exhausted = true
		sr.maybeFinish()
		return
	}
	sr.nextArrival = f
	sr.arrival.ResetAt(f.At)
}

// onArrival admits or defers the pending arrival, then advances the clock
// to the next one.
func (sr *streamRun) onArrival() {
	if sr.finished {
		return
	}
	a := sr.nextArrival
	if sr.adm.Admit(sr.active) && sr.queueLen() == 0 {
		sr.launch(a)
	} else {
		sr.res.Deferred++
		sr.pushPending(a)
	}
	sr.advance()
}

func (sr *streamRun) queueLen() int { return sr.pending.n }

func (sr *streamRun) pushPending(a FlowArrival) {
	sr.pending.push(a)
	if q := sr.queueLen(); q > sr.res.MaxQueue {
		sr.res.MaxQueue = q
	}
}

// drainPending launches queued flows while the admission policy allows.
func (sr *streamRun) drainPending() {
	for sr.queueLen() > 0 && sr.adm.Admit(sr.active) {
		sr.launch(sr.pending.pop())
	}
}

// arrivalBlock is the number of arrivals in one block of an arrivalFIFO:
// 16 KiB, one allocator size class.
const arrivalBlock = 512

// arrivalFIFO queues arrivals in fixed blocks of arrivalBlock, oldest
// first. A drained block is kept for the next push that needs one, so the
// queue's footprint follows its peak backlog in whole blocks, and no
// arrival is ever copied to grow or compact it.
type arrivalFIFO struct {
	blocks [][]FlowArrival // blocks[0] is read from, the last written to
	head   int             // read index in blocks[0]
	n      int
	spare  []FlowArrival
}

func (q *arrivalFIFO) push(a FlowArrival) {
	w := q.head + q.n
	if w == len(q.blocks)*arrivalBlock {
		b := q.spare
		q.spare = nil
		if b == nil {
			b = make([]FlowArrival, arrivalBlock)
		}
		q.blocks = append(q.blocks, b)
	}
	q.blocks[w/arrivalBlock][w%arrivalBlock] = a
	q.n++
}

// pop removes and returns the oldest arrival; the queue must not be empty.
func (q *arrivalFIFO) pop() FlowArrival {
	a := q.blocks[0][q.head]
	q.head++
	q.n--
	if q.head == arrivalBlock {
		q.spare = q.blocks[0]
		q.blocks = append(q.blocks[:0], q.blocks[1:]...)
		q.head = 0
	}
	return a
}

// launch starts one flow now: a recycled client from the free list when
// available, a fresh one otherwise. The testbed's setup draws its start
// jitter at launch, as AddFlowBetween draws one per added flow.
func (sr *streamRun) launch(a FlowArrival) {
	if sr.err != nil {
		return
	}
	tb := sr.tb
	src, dst := netsim.NodeID(a.Src), netsim.NodeID(a.Dst)
	if tb.Net != nil {
		// Src is a dumbbell sender; its one receiver is the destination.
		dst = tb.Net.Receiver.ID
	}
	spec := iperf.Spec{Flow: sr.nextFlow, Bytes: a.Bytes, CCA: sr.ccaName}
	srcM, dstM, err := tb.setup(src, dst, &spec)
	if err != nil {
		sr.fail(err)
		return
	}
	sr.nextFlow++

	var e *pooledClient
	if !tb.noPool {
		// Pop the most recently parked client that is still quiescent. An
		// entry was quiescent when parked, but a stray in-flight packet
		// (a retransmit racing the final ACK) may have landed in its
		// receive path since; such a client is orphaned exactly as an
		// unpooled run leaves every finished flow.
		for n := len(sr.free); n > 0; n = len(sr.free) {
			cand := sr.free[n-1]
			sr.free = sr.free[:n-1]
			if !cand.c.Quiescent() {
				sr.res.PoolDiscards++
				continue
			}
			e = cand
			break
		}
	}
	// The endpoints copy the accounts, so these make no object per flow.
	srcAcct, dstAcct := energy.NewAccount(tb.Meters[srcM], sr.ccaName), energy.NewAccount(tb.Meters[dstM], sr.ccaName)
	if e != nil {
		if err := e.c.Reset(spec, tb.hosts[src], tb.hosts[dst], srcAcct, dstAcct); err != nil {
			sr.fail(err)
			return
		}
		sr.res.PoolReuses++
	} else {
		c, err := iperf.NewClient(tb.Engine, spec, tb.hosts[src], tb.hosts[dst], srcAcct, dstAcct)
		if err != nil {
			sr.fail(err)
			return
		}
		e = &pooledClient{c: c} // one entry per peak-concurrency slot
		e.done = sr.doneFunc(e)
		sr.res.PoolSize++
	}
	e.arrivedAt = a.At
	e.bytes = a.Bytes
	e.flow = spec.Flow
	e.c.OnDone(e.done)

	sr.active++
	if sr.active > sr.res.MaxActive {
		sr.res.MaxActive = sr.active
	}
	e.c.Start()
}

// doneFunc binds the completion hook for one pool entry, once.
func (sr *streamRun) doneFunc(e *pooledClient) func(*iperf.Client) {
	return func(*iperf.Client) { sr.onFlowDone(e) }
}

// onFlowDone retires one flow: fold its sojourn into the aggregates,
// release scheduler state, recycle the client, and let the admission
// policy start waiting flows.
func (sr *streamRun) onFlowDone(e *pooledClient) {
	tb := sr.tb
	now := tb.Engine.Now()
	sr.active--

	sojourn := (now - e.arrivedAt).Seconds()
	sr.acc.Add(sojourn)
	sr.fct.Add(sojourn)
	sr.res.Flows++
	sr.res.Bytes += e.bytes
	sr.res.Retransmits += e.c.Sender().Retransmits
	sr.res.Timeouts += e.c.Sender().Timeouts

	for _, q := range tb.drrs {
		q.Release(e.flow)
	}

	if e.c.Quiescent() && !tb.noPool {
		sr.free = append(sr.free, e) // grows to the peak concurrency
	} else if !tb.noPool {
		// A deferred packet is still in the receive path; reusing the
		// entry would deliver it into the next flow's state. Orphan it —
		// exactly what an unpooled run does with every finished flow.
		sr.res.PoolDiscards++
	}

	sr.drainPending()
	sr.maybeFinish()
}

func (sr *streamRun) fail(err error) {
	if sr.err == nil {
		sr.err = err
	}
	sr.finished = true
	sr.arrival.Stop()
}

// maybeFinish collects the energy bracket at the instant the last flow of
// an exhausted stream completes, as Run does at its last completion.
func (sr *streamRun) maybeFinish() {
	if sr.finished || !sr.exhausted || sr.active > 0 || sr.queueLen() > 0 {
		return
	}
	sr.finished = true
	bracket := sr.tb.collect()
	sr.res.TotalSenderJ = bracket.TotalSenderJ
	sr.res.ReceiverEnergyJ = bracket.ReceiverEnergyJ
	sr.res.Duration = bracket.Duration
	sr.res.AvgSenderPowerW = bracket.AvgSenderPowerW
	sr.res.MeanFCT = sr.acc.Mean()
	sr.res.P99FCT = sr.fct.Value()
	sr.res.MaxFCT = sr.acc.Max()
	sr.res.EventsFired = sr.tb.Engine.Fired()
}
