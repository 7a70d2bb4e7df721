// Package testbed assembles the paper's §3 laboratory out of the simulator
// substrates: sender servers and a receiver server (2× Xeon E5-2630 v3
// class, modeled by internal/energy), an Intel-Tofino-class switch with a
// 10 Gb/s bottleneck port, bonded 2×10 Gb/s sender uplinks, iperf3-style
// traffic generation, `stress` background load, and RAPL energy
// measurement bracketing each run.
//
// One Testbed is one experiment run. The paper repeats each scenario ten
// times and reports standard deviations; each repetition builds its own
// Testbed from a per-repetition seed (registry.Run derives them) that
// perturbs start times and measurement noise the way a physical lab run
// would.
package testbed

import (
	"fmt"

	"greenenvy/internal/energy"
	"greenenvy/internal/iperf"
	"greenenvy/internal/netsim"
	"greenenvy/internal/rapl"
	"greenenvy/internal/sim"
)

// Options configures a testbed instance.
type Options struct {
	// Senders is the number of sender servers (one flow per server in
	// the Theorem 1 experiments; the paper's arithmetic in §4.1 treats
	// each flow as its own sender).
	Senders int
	// MarkBytes enables DCTCP-style CE marking at the bottleneck.
	MarkBytes int
	// UseDRR replaces the bottleneck FIFO with a weighted-fair DRR
	// scheduler (for the Figure 1 allocation sweep).
	UseDRR bool
	// Seed drives all run randomness (start jitter, measurement noise).
	Seed uint64
	// MeasureNoise is the relative σ of RAPL measurement noise (default
	// 0.4%, matching the run-to-run spread of package-energy readings).
	MeasureNoise float64
	// Deprecated: ignored; Run always keeps per-flow Reports and RunStream
	// never does. benchmark/ still sets it, and the cleanup that deletes
	// Shards removes it.
	StreamStats bool
	// Deprecated: ignored; every testbed runs on one engine. benchmark/
	// still sets it, and the benchmark PR that retires sim.shard_slowdown
	// removes it.
	Shards int
}

// The measurement constants every experiment shares.
const (
	// startJitter is the maximum random offset added to each flow's
	// start; it models process scheduling skew.
	startJitter = 10 * sim.Microsecond
	// syncEvery is the energy integration granularity.
	syncEvery = sim.Millisecond
	// dumbbellHostBps is a dumbbell host's line rate: each sender bonds
	// two 10 Gb/s uplinks (§3).
	dumbbellHostBps = 20_000_000_000
)

func (o Options) withDefaults() Options {
	if o.Senders == 0 {
		o.Senders = 1
	}
	if o.MeasureNoise == 0 {
		o.MeasureNoise = 0.004
	}
	return o
}

// Testbed is one assembled experiment environment. It drives either the
// paper's dumbbell (New) or a k-ary fat-tree fabric (NewFatTree) through
// one host table and one meter registry: every flow, on either topology,
// is set up by the same code, and the meter noise-draw order is the
// dumbbell's historical one, so its golden digests are untouched by the
// generalization.
type Testbed struct {
	// Engine is the one engine that drives the topology, its flows and
	// its meters.
	Engine *sim.Engine
	// Net is the dumbbell topology (nil for fat-tree testbeds).
	Net *netsim.Dumbbell
	// Fat is the fat-tree topology (nil for dumbbell testbeds).
	Fat *netsim.FatTree
	// Meters holds one meter per registered host (every dumbbell host; a
	// fat-tree host at its first flow or TouchHost), in registration
	// order: on the dumbbell, sender i's is Meters[i] and the receiver's
	// is last.
	Meters       []*energy.Meter
	Sensors      []*rapl.Sensor
	model        energy.Model
	measureNoise float64
	rng          *sim.RNG
	// hosts is the host table, indexed by NodeID: the dumbbell's senders
	// and then its receiver, or every fat-tree host. hostBps is their line
	// rate, every flow's default NIC rate.
	hosts   []*netsim.Host
	hostBps int64
	// meterOf maps a host's NodeID to its index in Meters, -1 before the
	// host's first flow.
	meterOf  []int
	clients  []*iperf.Client
	measures []rapl.Measurement
	ran      bool
	// senderIdx/recvIdx index Meters by measurement role, in registration
	// order. collect draws noise for senders first, then receivers — the
	// dumbbell's historical order, preserved exactly.
	senderIdx []int
	recvIdx   []int
	// watch is the link whose queue stats Run reports as BottleneckStats.
	watch *netsim.Link
	// switches are polled for no-route drop counters after the run.
	switches []*netsim.Switch
	// drrs are the fair queues notified on flow teardown (DRR.Release).
	drrs []*netsim.DRR
	// release is every client's teardown hook, bound once per testbed.
	release func(*iperf.Client)
	// noPool disables client recycling in RunStream (every flow builds a
	// fresh client). Test-only: the churn equivalence test compares pooled
	// and unpooled runs byte-for-byte.
	noPool bool
}

// New builds a dumbbell testbed with the default §3 topology, applying the
// marking/DRR options. It is NewDumbbell with the config the paper's
// experiments use.
func New(opts Options) *Testbed {
	opts = opts.withDefaults()
	dcfg := netsim.DefaultDumbbell(opts.Senders)
	dcfg.MarkBytes = opts.MarkBytes
	if opts.UseDRR {
		dcfg.BottleneckQueue = netsim.NewDRR(dcfg.BufferBytes, opts.MarkBytes)
	}
	return NewDumbbell(opts, dcfg)
}

// NewDumbbell builds a dumbbell testbed over an explicit topology config —
// the entry point for callers (the scenario compiler) that pick their own
// queue disciplines, rates, or per-sender access delays. Measurement
// machinery (meters, sensors, noise-draw order) is identical to New's, so
// a config equal to New's produces byte-identical runs. Every host's meter
// is registered up front: the senders', then the receiver's.
func NewDumbbell(opts Options, dcfg netsim.DumbbellConfig) *Testbed {
	engine := sim.NewEngine()
	d := netsim.NewDumbbell(engine, dcfg)
	hosts := make([]*netsim.Host, 0, len(d.Senders)+1)
	hosts = append(append(hosts, d.Senders...), d.Receiver)
	tb := newTestbed(opts, engine, hosts, dumbbellHostBps)
	tb.Net = d
	for _, h := range hosts {
		tb.meterFor(h.ID, h != d.Receiver)
	}
	tb.watch = d.Bottleneck
	tb.switches = []*netsim.Switch{d.Switch}
	if q := d.BottleneckDRR(); q != nil {
		tb.drrs = append(tb.drrs, q)
	}
	return tb
}

// NewFatTree builds a testbed over a k-ary fat-tree fabric. Topology knobs
// come from cfg (rates per tier, queue disciplines, ECMP seed); opts
// contributes the measurement machinery (seed-driven jitter and noise).
// Any *netsim.DRR created through cfg.NewQueue is tracked for flow
// teardown automatically. Meters are registered lazily, one per
// participating host, in first-use order.
func NewFatTree(opts Options, cfg netsim.FatTreeConfig) *Testbed {
	var drrs []*netsim.DRR
	if userQueue := cfg.NewQueue; userQueue != nil {
		cfg.NewQueue = func(p netsim.FatTreePort) netsim.Queue {
			q := userQueue(p)
			if drr, ok := q.(*netsim.DRR); ok {
				drrs = append(drrs, drr)
			}
			return q
		}
	}
	engine := sim.NewEngine()
	ft := netsim.NewFatTree(engine, cfg)
	tb := newTestbed(opts, engine, ft.Hosts, ft.Config.HostBps)
	tb.Fat, tb.switches, tb.drrs = ft, ft.Switches(), drrs
	return tb
}

// newTestbed is the constructor both topologies share: the host table, an
// empty meter registry sized for every host, and the run's RNG.
func newTestbed(opts Options, engine *sim.Engine, hosts []*netsim.Host, hostBps int64) *Testbed {
	opts = opts.withDefaults()
	tb := &Testbed{
		Engine:       engine,
		Meters:       make([]*energy.Meter, 0, len(hosts)),
		Sensors:      make([]*rapl.Sensor, 0, len(hosts)),
		model:        energy.DefaultModel(),
		measureNoise: opts.MeasureNoise,
		rng:          sim.NewRNG(opts.Seed),
		hosts:        hosts,
		hostBps:      hostBps,
		meterOf:      make([]int, len(hosts)),
	}
	for i := range tb.meterOf {
		tb.meterOf[i] = -1
	}
	return tb
}

// WatchBottleneck selects the link whose queue statistics Run reports as
// BottleneckStats (the dumbbell wires its bottleneck automatically).
func (tb *Testbed) WatchBottleneck(l *netsim.Link) { tb.watch = l }

// meterFor returns (registering on first use) a host's meter index. Hosts
// enter the sender or receiver measurement group according to their first
// role; a receiver that later originates a flow is promoted to the sender
// group, keeping TotalSenderJ the sum the theorems compare. A host first
// used after the run began is bracketed from that instant (it was idle
// before).
func (tb *Testbed) meterFor(host netsim.NodeID, sender bool) int {
	if i := tb.meterOf[host]; i >= 0 {
		if sender {
			tb.promoteToSender(i)
		}
		return i
	}
	m := energy.NewMeter(tb.Engine, tb.model.Curve, tb.model.Costs)
	s := rapl.NewSensor(m)
	tb.Meters = append(tb.Meters, m)
	tb.Sensors = append(tb.Sensors, s)
	if tb.ran {
		// Run and RunStream open the measurement window as they set ran.
		tb.measures = append(tb.measures, s.Begin())
	}
	i := len(tb.Meters) - 1
	tb.meterOf[host] = i
	if sender {
		tb.senderIdx = append(tb.senderIdx, i)
	} else {
		tb.recvIdx = append(tb.recvIdx, i)
	}
	return i
}

func (tb *Testbed) promoteToSender(meter int) {
	for _, s := range tb.senderIdx {
		if s == meter {
			return
		}
	}
	for j, r := range tb.recvIdx {
		if r == meter {
			tb.recvIdx = append(tb.recvIdx[:j], tb.recvIdx[j+1:]...)
			break
		}
	}
	tb.senderIdx = append(tb.senderIdx, meter)
}

// SenderMeter returns the energy meter of sender i.
func (tb *Testbed) SenderMeter(i int) *energy.Meter { return tb.Meters[i] }

// ReceiverMeter returns the receiver host's meter.
func (tb *Testbed) ReceiverMeter() *energy.Meter { return tb.Meters[len(tb.Meters)-1] }

// AddFlow installs an iperf client on dumbbell sender host `sender`
// targeting the receiver: AddFlowBetween with the receiver as destination.
func (tb *Testbed) AddFlow(sender int, spec iperf.Spec) (*iperf.Client, error) {
	if tb.Net == nil {
		return nil, fmt.Errorf("testbed: AddFlow targets the dumbbell; use AddFlowBetween on a fat-tree testbed")
	}
	return tb.AddFlowBetween(netsim.NodeID(sender), tb.Net.Receiver.ID, spec)
}

// AddFlowBetween installs an iperf client between two hosts of either
// topology. The flow's TxPathCost is taken from the energy cost model and
// its NIC rate from the topology's host line rate unless the spec
// overrides them; start jitter is applied on top of spec.StartAt.
func (tb *Testbed) AddFlowBetween(src, dst netsim.NodeID, spec iperf.Spec) (*iperf.Client, error) {
	if spec.Flow == 0 {
		spec.Flow = netsim.FlowID(len(tb.clients) + 1)
	}
	srcMeter, dstMeter, err := tb.setup(src, dst, &spec)
	if err != nil {
		return nil, err
	}
	srcAcct := energy.NewAccount(tb.Meters[srcMeter], spec.CCA)
	dstAcct := energy.NewAccount(tb.Meters[dstMeter], spec.CCA)
	c, err := iperf.NewClient(tb.Engine, spec, tb.hosts[src], tb.hosts[dst], srcAcct, dstAcct)
	if err != nil {
		return nil, err
	}
	tb.register(c)
	return c, nil
}

// setup is where every flow starts, on either topology: AddFlowBetween's
// and each of RunStream's launches. It validates the endpoints against the
// host table, fills the host-dependent TCP defaults the spec leaves zero,
// draws the flow's start jitter, and returns both hosts' meter indices.
func (tb *Testbed) setup(src, dst netsim.NodeID, spec *iperf.Spec) (srcMeter, dstMeter int, err error) {
	if n := netsim.NodeID(len(tb.hosts)); src < 0 || src >= n || dst < 0 || dst >= n || src == dst {
		return 0, 0, fmt.Errorf("testbed: flow endpoints %d -> %d invalid for %d hosts", src, dst, n)
	}
	if spec.Config.TxPathCost == 0 {
		spec.Config.TxPathCost = tb.model.Costs.TxPathCost
	}
	if spec.Config.NICRateBps == 0 {
		spec.Config.NICRateBps = tb.hostBps
	}
	spec.StartAt += tb.rng.Jitter(startJitter)
	return tb.meterFor(src, true), tb.meterFor(dst, false), nil
}

// register wires the bookkeeping shared by both topologies: scheduler-state
// teardown. The teardown hook is bound once per testbed and reads the flow
// from the client, so registering a flow allocates nothing. It is pure
// synchronous cleanup — it schedules no events and draws no randomness, so
// it cannot perturb the deterministic event stream.
func (tb *Testbed) register(c *iperf.Client) {
	if tb.release == nil {
		tb.release = func(c *iperf.Client) {
			for _, q := range tb.drrs {
				q.Release(c.Flow())
			}
		}
	}
	c.OnDone(tb.release)
	tb.clients = append(tb.clients, c)
}

// AddLoad runs background load on dumbbell sender host i for the whole run,
// as the paper runs `stress` (§4.2): frac of all cores, rounded to whole
// busy cores like `stress --cpu N`, so 0.75 of 32 cores is 24.
func (tb *Testbed) AddLoad(sender int, frac float64) error {
	if tb.Net == nil {
		return fmt.Errorf("testbed: AddLoad targets a dumbbell sender; fat-tree testbeds take no load")
	}
	if sender < 0 || sender >= len(tb.Net.Senders) {
		return fmt.Errorf("testbed: load sender %d out of range", sender)
	}
	if !(frac >= 0 && frac <= 1) {
		return fmt.Errorf("testbed: load fraction %v out of [0, 1]", frac)
	}
	m := tb.Meters[sender]
	cores := m.Costs.Cores
	m.SetBaseLoad(float64(int(frac*float64(cores)+0.5)) / float64(cores))
	return nil
}

// SetWeight configures the DRR weight for a flow on every tracked fair
// queue: the dumbbell's bottleneck (when built with UseDRR) or the DRR
// ports a fat-tree config installed. It errors if no DRR is present.
func (tb *Testbed) SetWeight(flow netsim.FlowID, w float64) error {
	if len(tb.drrs) == 0 {
		return fmt.Errorf("testbed: no DRR scheduler in this topology")
	}
	for _, q := range tb.drrs {
		q.SetWeight(flow, w)
	}
	return nil
}

// RunResult is the paper-facing outcome of one run.
type RunResult struct {
	// Reports holds one iperf summary per flow, in AddFlow order.
	Reports []iperf.Report
	// SenderEnergyJ is RAPL-measured joules per sender host over the
	// measurement window (experiment start to last flow completion).
	SenderEnergyJ []float64
	// ReceiverEnergyJ is the receiver host's energy over the window.
	ReceiverEnergyJ float64
	// TotalSenderJ is the sum over senders — the quantity the paper's
	// §4.1 arithmetic compares.
	TotalSenderJ float64
	// Duration is experiment start to last completion.
	Duration sim.Duration
	// AvgSenderPowerW is TotalSenderJ / Duration (Figure 6's metric).
	AvgSenderPowerW float64
	// Retransmits sums retransmissions over all flows (Figure 8's
	// x-axis).
	Retransmits uint64
	// BottleneckStats snapshots the watched queue's counters (the
	// dumbbell bottleneck, or the link set with WatchBottleneck).
	BottleneckStats netsim.QueueStats
	// NoRouteDrops sums packets every switch discarded for lack of a
	// route; non-zero means the topology's tables are misconfigured.
	NoRouteDrops uint64
	// EventsFired counts discrete events the engine executed over the
	// run. A capacity metric: it sits outside every table and cache key.
	EventsFired uint64
}

// Run starts all flows, samples energy every millisecond until every flow
// completes (or the deadline passes), and returns the bracketed
// measurements. It errors if any flow failed to finish before the
// deadline.
func (tb *Testbed) Run(deadline sim.Duration) (RunResult, error) {
	if tb.ran {
		return RunResult{}, fmt.Errorf("testbed: Run called twice; build a fresh testbed per run")
	}
	tb.ran = true
	if len(tb.clients) == 0 {
		return RunResult{}, fmt.Errorf("testbed: no flows added")
	}

	var res RunResult
	finished := false
	// Collect at the exact completion instant: the sampler alone would
	// quantize the measurement window to syncEvery. Every client shares
	// one callback that counts flows down.
	remaining := len(tb.clients)
	flowDone := func(*iperf.Client) {
		if remaining--; remaining == 0 {
			finished = true
			res = tb.collect()
		}
	}
	tb.measure(deadline, func() {
		for _, c := range tb.clients {
			c.Start()
		}
		for _, c := range tb.clients {
			c.OnDone(flowDone)
		}
	}, func() bool { return finished })

	if !finished {
		return RunResult{}, fmt.Errorf("testbed: flows incomplete at deadline %v", deadline)
	}

	for _, c := range tb.clients {
		res.Reports = append(res.Reports, c.Report())
		res.Retransmits += c.Sender().Retransmits
	}
	if tb.watch != nil {
		res.BottleneckStats = tb.watch.Queue().Stats()
	}
	for _, sw := range tb.switches {
		res.NoRouteDrops += sw.DroppedNoRoute
	}
	res.EventsFired = tb.Engine.Fired()
	return res, nil
}

// measure is the measurement protocol Run and RunStream share. It brackets
// the run the way the paper's scripts bracket each iperf3 transfer: it
// reads every host's energy counter before the experiment, lets start
// launch the traffic, then integrates every meter each syncEvery until done
// reports true or the deadline passes, and runs the engine to the
// deadline. The caller closes the window with collect.
func (tb *Testbed) measure(deadline sim.Duration, start func(), done func() bool) {
	for _, s := range tb.Sensors {
		tb.measures = append(tb.measures, s.Begin())
	}
	start()
	var sample func()
	sample = func() {
		if done() {
			return
		}
		for _, m := range tb.Meters {
			m.Sync()
		}
		if tb.Engine.Now() < sim.Time(deadline) {
			tb.Engine.After(syncEvery, sample)
		}
	}
	tb.Engine.After(syncEvery, sample)
	tb.Engine.RunUntil(sim.Time(deadline))
}

// collect closes the measurement window at the current instant and fills
// RunResult's energy fields. It syncs every meter, then reads each host's
// counter with measurement noise drawn for senders first, then receivers,
// each in registration order. That draw order is part of the determinism
// contract: the dumbbell's golden digests depend on it. TotalSenderJ is
// the left-to-right sum of SenderEnergyJ.
func (tb *Testbed) collect() RunResult {
	for _, m := range tb.Meters {
		m.Sync()
	}
	res := RunResult{Duration: tb.Engine.Now()}
	for _, i := range tb.senderIdx {
		j := tb.measures[i].End() * tb.noise()
		res.SenderEnergyJ = append(res.SenderEnergyJ, j)
		res.TotalSenderJ += j
	}
	for _, i := range tb.recvIdx {
		res.ReceiverEnergyJ += tb.measures[i].End() * tb.noise()
	}
	if s := res.Duration.Seconds(); s > 0 {
		res.AvgSenderPowerW = res.TotalSenderJ / s
	}
	return res
}

// noise draws one RAPL reading's relative measurement error.
func (tb *Testbed) noise() float64 { return 1 + tb.rng.Normal(0, tb.measureNoise) }
