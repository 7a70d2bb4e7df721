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
	// Model is the host energy model; zero value uses the calibrated
	// defaults.
	Model energy.Model
	// BufferBytes is the bottleneck buffer (default 1 MiB).
	BufferBytes int
	// MarkBytes enables DCTCP-style CE marking at the bottleneck.
	MarkBytes int
	// UseDRR replaces the bottleneck FIFO with a weighted-fair DRR
	// scheduler (for the Figure 1 allocation sweep).
	UseDRR bool
	// Seed drives all run randomness (start jitter, measurement noise).
	Seed uint64
	// StartJitter is the maximum random offset added to each client's
	// start (default 10 µs; models process scheduling skew).
	StartJitter sim.Duration
	// MeasureNoise is the relative σ of RAPL measurement noise (default
	// 0.4%, matching the run-to-run spread of package-energy readings).
	MeasureNoise float64
	// SyncEvery is the energy integration granularity (default 1 ms).
	SyncEvery sim.Duration
	// StreamStats opts into streaming aggregation: per-flow Reports are
	// not retained (Run leaves RunResult.Reports nil; aggregate fields are
	// still populated) and RunStream becomes available. The explicit flag
	// keeps "results got smaller" a caller decision, never a surprise.
	StreamStats bool
	// Shards, when positive, runs fat-tree testbeds on the sharded
	// conservative-synchronization engine with up to this many workers
	// (clamped to the partition count, one shard per pod). Results are
	// byte-identical for every positive value; 0 keeps the monolithic
	// engine. Dumbbell testbeds ignore it — a two-host topology degenerates
	// to a single shard, so the monolithic path IS its sharded execution.
	Shards int
}

func (o Options) withDefaults() Options {
	if o.Senders == 0 {
		o.Senders = 1
	}
	if o.Model.Costs.Cores == 0 {
		o.Model = energy.DefaultModel()
	}
	if o.BufferBytes == 0 {
		o.BufferBytes = 1 << 20
	}
	if o.StartJitter == 0 {
		o.StartJitter = 10 * sim.Microsecond
	}
	if o.MeasureNoise == 0 {
		o.MeasureNoise = 0.004
	}
	if o.SyncEvery == 0 {
		o.SyncEvery = sim.Millisecond
	}
	return o
}

// Testbed is one assembled experiment environment. It drives either the
// paper's dumbbell (New) or a k-ary fat-tree fabric (NewFatTree); the
// measurement loop — meters, RAPL bracketing — is shared, and the meter
// noise-draw order is identical between the two so the dumbbell's golden
// digests are untouched by the generalization.
type Testbed struct {
	Engine *sim.Engine
	// Net is the dumbbell topology (nil for fat-tree testbeds).
	Net *netsim.Dumbbell
	// Fat is the fat-tree topology (nil for dumbbell testbeds).
	Fat      *netsim.FatTree
	Model    energy.Model
	Meters   []*energy.Meter // dumbbell: index i = sender i; last = receiver
	Sensors  []*rapl.Sensor
	opts     Options
	rng      *sim.RNG
	clients  []*iperf.Client
	measures []rapl.Measurement
	ran      bool
	// senderIdx/recvIdx index Meters by measurement role, in registration
	// order. collect draws noise for senders first, then receivers — the
	// dumbbell's historical order, preserved exactly.
	senderIdx []int
	recvIdx   []int
	// meterOf lazily maps fat-tree hosts to their meters.
	meterOf map[netsim.NodeID]int
	// watch is the link whose queue stats Run reports as BottleneckStats.
	watch *netsim.Link
	// switches are polled for no-route drop counters after the run.
	switches []*netsim.Switch
	// drrs are the fair queues notified on flow teardown (DRR.Release).
	drrs []*netsim.DRR
	// noPool disables client recycling in RunStream (every flow builds a
	// fresh client). Test-only: the churn equivalence test compares pooled
	// and unpooled runs byte-for-byte.
	noPool bool

	// Sharded-run state (nil/empty on the monolithic path).
	//
	// group is the conservative-synchronization scheduler when
	// Options.Shards > 0 on a fat-tree; Engine then aliases shard 0.
	group *sim.ShardGroup
	// ctrl[i][j] carries control closures (chained-start signals) from
	// shard i to shard j with the link delay as lookahead.
	ctrl [][]*sim.Conduit[func()]
	// clientSrcShard/clientDstShard parallel clients; meterShard parallels
	// Meters; drrShard parallels drrs. Each records the owning shard.
	clientSrcShard []int
	clientDstShard []int
	meterShard     []int
	drrShard       []int
}

// New builds a dumbbell testbed with the default §3 topology, applying the
// buffer/marking/DRR options. It is NewDumbbell with the config the paper's
// experiments use.
func New(opts Options) *Testbed {
	opts = opts.withDefaults()
	dcfg := netsim.DefaultDumbbell(opts.Senders)
	dcfg.BufferBytes = opts.BufferBytes
	dcfg.MarkBytes = opts.MarkBytes
	if opts.UseDRR {
		dcfg.BottleneckQueue = netsim.NewDRR(opts.BufferBytes, opts.MarkBytes)
	}
	return NewDumbbell(opts, dcfg)
}

// NewDumbbell builds a dumbbell testbed over an explicit topology config —
// the entry point for callers (the scenario compiler) that pick their own
// queue disciplines, rates, or per-sender access delays. Measurement
// machinery (meters, sensors, noise-draw order) is identical to New's, so
// a config equal to New's produces byte-identical runs.
func NewDumbbell(opts Options, dcfg netsim.DumbbellConfig) *Testbed {
	opts = opts.withDefaults()
	engine := sim.NewEngine()
	d := netsim.NewDumbbell(engine, dcfg)

	tb := &Testbed{
		Engine: engine,
		Net:    d,
		Model:  opts.Model,
		opts:   opts,
		rng:    sim.NewRNG(opts.Seed),
	}
	for i := range d.Senders {
		m := energy.NewMeter(engine, opts.Model.Curve, opts.Model.Costs)
		tb.Meters = append(tb.Meters, m)
		tb.Sensors = append(tb.Sensors, rapl.NewSensor(m))
		tb.senderIdx = append(tb.senderIdx, i)
	}
	recvMeter := energy.NewMeter(engine, opts.Model.Curve, opts.Model.Costs)
	tb.Meters = append(tb.Meters, recvMeter)
	tb.Sensors = append(tb.Sensors, rapl.NewSensor(recvMeter))
	tb.recvIdx = append(tb.recvIdx, len(tb.Meters)-1)

	tb.watch = d.Bottleneck
	tb.switches = []*netsim.Switch{d.Switch}
	if q := d.BottleneckDRR(); q != nil {
		tb.drrs = append(tb.drrs, q)
	}
	return tb
}

// NewFatTree builds a testbed over a k-ary fat-tree fabric. Topology knobs
// come from cfg (rates per tier, queue disciplines, ECMP seed); opts
// contributes the measurement machinery (energy model, seed-driven jitter
// and noise). Any *netsim.DRR created through cfg.NewQueue is tracked for
// flow teardown automatically. Flows are added with AddFlowBetween; meters
// are created lazily, one per participating host, in first-use order.
func NewFatTree(opts Options, cfg netsim.FatTreeConfig) *Testbed {
	opts = opts.withDefaults()

	tb := &Testbed{
		Model:   opts.Model,
		opts:    opts,
		rng:     sim.NewRNG(opts.Seed),
		meterOf: make(map[netsim.NodeID]int),
	}
	part := netsim.FatTreePartition{K: cfg.K}
	if userQueue := cfg.NewQueue; userQueue != nil {
		cfg.NewQueue = func(p netsim.FatTreePort) netsim.Queue {
			q := userQueue(p)
			if drr, ok := q.(*netsim.DRR); ok {
				tb.drrs = append(tb.drrs, drr)
				// Record the owning shard so flow teardown can stay
				// shard-local on the sharded path. Core downlinks belong to
				// the core's shard; every other port to its pod's.
				shard := p.Pod
				if p.Tier == netsim.TierCoreDown {
					shard = part.CoreShard(p.Switch)
				}
				tb.drrShard = append(tb.drrShard, shard)
			}
			return q
		}
	}
	if opts.Shards > 0 {
		tb.group = sim.NewShardGroup(part.Shards())
		tb.Fat = netsim.NewFatTreeSharded(tb.group, cfg)
		tb.Engine = tb.Fat.Engine // shard 0, for API compatibility
		tb.buildControlMesh(cfg.LinkDelay)
	} else {
		tb.Engine = sim.NewEngine()
		tb.Fat = netsim.NewFatTree(tb.Engine, cfg)
	}
	tb.switches = tb.Fat.Switches()
	return tb
}

// WatchBottleneck selects the link whose queue statistics Run reports as
// BottleneckStats (the dumbbell wires its bottleneck automatically).
func (tb *Testbed) WatchBottleneck(l *netsim.Link) { tb.watch = l }

// buildControlMesh wires the full mesh of cross-shard control conduits
// (ctrl[i][j] delivers chained-start closures from shard i to shard j,
// with the link delay as lookahead). Created in a fixed order after the
// topology's packet conduits so the conduit registration sequence — and
// with it the arrival-seq ordering — is a function of construction order
// alone.
func (tb *Testbed) buildControlMesh(delay sim.Duration) {
	P := tb.group.Shards()
	tb.ctrl = make([][]*sim.Conduit[func()], P)
	for i := 0; i < P; i++ {
		tb.ctrl[i] = make([]*sim.Conduit[func()], P)
		for j := 0; j < P; j++ {
			if i == j {
				continue
			}
			tb.ctrl[i][j] = sim.NewConduit(tb.group, i, j, delay, func(fire func()) { fire() })
		}
	}
}

// meterFor returns (creating on first use) the meter index for a fat-tree
// host. Hosts enter the sender or receiver measurement group according to
// their first role; a receiver that later originates a flow is promoted to
// the sender group, keeping TotalSenderJ the sum the theorems compare.
func (tb *Testbed) meterFor(host netsim.NodeID, sender bool) int {
	if i, ok := tb.meterOf[host]; ok {
		if sender {
			tb.promoteToSender(i)
		}
		return i
	}
	// The meter integrates on the engine that drives its host — the host's
	// shard when sharded, tb.Engine otherwise.
	m := energy.NewMeter(tb.Fat.EngineOf(host), tb.Model.Curve, tb.Model.Costs)
	tb.Meters = append(tb.Meters, m)
	tb.Sensors = append(tb.Sensors, rapl.NewSensor(m))
	tb.meterShard = append(tb.meterShard, tb.Fat.ShardOfHost(host))
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

// AddFlow installs an iperf client on sender host `sender` targeting the
// receiver. The flow's TxPathCost is taken from the energy cost model
// unless the spec overrides it. Start jitter is applied on top of
// spec.StartAt.
func (tb *Testbed) AddFlow(sender int, spec iperf.Spec) (*iperf.Client, error) {
	if tb.Net == nil {
		return nil, fmt.Errorf("testbed: AddFlow targets the dumbbell; use AddFlowBetween on a fat-tree testbed")
	}
	if sender < 0 || sender >= len(tb.Net.Senders) {
		return nil, fmt.Errorf("testbed: sender %d out of range", sender)
	}
	if spec.Flow == 0 {
		spec.Flow = netsim.FlowID(len(tb.clients) + 1)
	}
	if spec.Config.TxPathCost == 0 {
		spec.Config.TxPathCost = tb.Model.Costs.TxPathCost
	}
	if spec.Config.NICRateBps == 0 {
		// Match the topology: each sender has 2×10 Gb/s bonded uplinks.
		spec.Config.NICRateBps = 20_000_000_000
	}
	spec.StartAt += tb.rng.Jitter(tb.opts.StartJitter)

	srcAcct := energy.NewAccount(tb.Meters[sender], spec.CCA)
	dstAcct := energy.NewAccount(tb.ReceiverMeter(), spec.CCA)
	c, err := iperf.NewClient(tb.Engine, spec, tb.Net.Senders[sender], tb.Net.Receiver, srcAcct, dstAcct)
	if err != nil {
		return nil, err
	}
	tb.register(c, spec.Flow)
	return c, nil
}

// AddFlowBetween installs an iperf client between two fat-tree hosts. The
// NIC rate defaults to the topology's host link rate; start jitter is
// applied on top of spec.StartAt, exactly as on the dumbbell.
func (tb *Testbed) AddFlowBetween(src, dst netsim.NodeID, spec iperf.Spec) (*iperf.Client, error) {
	if tb.Fat == nil {
		return nil, fmt.Errorf("testbed: AddFlowBetween needs a fat-tree testbed; use AddFlow on a dumbbell")
	}
	n := netsim.NodeID(tb.Fat.NumHosts())
	if src < 0 || src >= n || dst < 0 || dst >= n || src == dst {
		return nil, fmt.Errorf("testbed: flow endpoints %d -> %d invalid for %d hosts", src, dst, n)
	}
	if spec.Flow == 0 {
		spec.Flow = netsim.FlowID(len(tb.clients) + 1)
	}
	if spec.Config.TxPathCost == 0 {
		spec.Config.TxPathCost = tb.Model.Costs.TxPathCost
	}
	if spec.Config.NICRateBps == 0 {
		spec.Config.NICRateBps = tb.Fat.Config.HostBps
	}
	spec.StartAt += tb.rng.Jitter(tb.opts.StartJitter)

	srcAcct := energy.NewAccount(tb.Meters[tb.meterFor(src, true)], spec.CCA)
	dstAcct := energy.NewAccount(tb.Meters[tb.meterFor(dst, false)], spec.CCA)
	c, err := iperf.NewClientOn(tb.Fat.EngineOf(src), tb.Fat.EngineOf(dst), spec,
		tb.Fat.Hosts[src], tb.Fat.Hosts[dst], srcAcct, dstAcct)
	if err != nil {
		return nil, err
	}
	tb.clientSrcShard = append(tb.clientSrcShard, tb.Fat.ShardOfHost(src))
	tb.clientDstShard = append(tb.clientDstShard, tb.Fat.ShardOfHost(dst))
	tb.register(c, spec.Flow)
	return c, nil
}

// register wires the bookkeeping shared by both topologies: scheduler-state
// teardown. The teardown callback is pure synchronous cleanup — it
// schedules no events and draws no randomness, so it cannot perturb the
// deterministic event stream.
//
// On the sharded path flow teardown releases only the DRR queues living on
// the flow's sender shard: the OnDone callback executes there, and DRR
// release order on any other shard would depend on when that shard
// observed the completion — a worker-count dependence the determinism
// contract forbids. Sender-shard queues are the only ones a finished flow
// still holds deficit state on that could affect scheduling before the run
// drains.
func (tb *Testbed) register(c *iperf.Client, flow netsim.FlowID) {
	if tb.group == nil {
		c.OnDone(func() {
			for _, q := range tb.drrs {
				q.Release(flow)
			}
		})
	} else {
		srcShard := tb.clientSrcShard[len(tb.clients)]
		c.OnDone(func() {
			for qi, q := range tb.drrs {
				if tb.drrShard[qi] == srcShard {
					q.Release(flow)
				}
			}
		})
	}
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
	// EventsFired counts discrete events executed over the run, summed
	// across partition engines on the sharded path. A capacity metric, not
	// part of the determinism contract (though in practice it is identical
	// across worker counts).
	EventsFired uint64
}

// Run starts all flows, samples energy every SyncEvery until every flow
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
	if tb.group != nil {
		return tb.runSharded(deadline)
	}

	var res RunResult
	finished := false
	// Collect at the exact completion instant: the sampler alone would
	// quantize the measurement window to SyncEvery. Every client shares
	// one callback that counts flows down.
	remaining := len(tb.clients)
	flowDone := func() {
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
		if !tb.opts.StreamStats {
			res.Reports = append(res.Reports, c.Report())
		}
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
// launch the traffic, then integrates every meter each SyncEvery until done
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
			tb.Engine.After(tb.opts.SyncEvery, sample)
		}
	}
	tb.Engine.After(tb.opts.SyncEvery, sample)
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
func (tb *Testbed) noise() float64 { return 1 + tb.rng.Normal(0, tb.opts.MeasureNoise) }
