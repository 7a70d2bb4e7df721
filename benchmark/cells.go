package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"runtime"
	"time"

	"greenenvy/internal/energy"
	"greenenvy/internal/iperf"
	"greenenvy/internal/netsim"
	"greenenvy/internal/registry"
	"greenenvy/internal/sim"
	"greenenvy/internal/tcp"
	"greenenvy/internal/testbed"
	traffic "greenenvy/internal/workload"
)

// A cell is one repetition of one of the experiments a workload runs,
// built through the testbed, netsim and iperf public functions exactly as
// the experiment builds it. Run untraced it is that repetition; run with a
// tracer, the same build gets counting wrappers and spans, and its result
// must stay byte-identical.
type cell struct {
	kind  string  // "sweep", "incast" or "stream"
	seed  uint64  // the workload's Options.Seed
	scale float64 // the workload's Options.Scale
	// fanIn and shards shape an incast cell.
	fanIn, shards int
}

// cellFor picks a workload's representative cell, at the scale of the
// workload's first experiment. Replay decodes results instead of
// simulating; its cell is the sweep cell whose result it reads first.
func cellFor(w workload, seed uint64) cell {
	c := cell{kind: "sweep", seed: seed, scale: w.Exps[0].Opts.Scale}
	switch w.Name {
	case "incast":
		c.kind, c.fanIn = "incast", 256
	case "stream":
		c.kind = "stream"
	}
	return c
}

// counts are a cell's deterministic work counters.
type counts struct {
	// pkts counts switch forwarding steps (every packet any switch
	// received), the denominator of every per-packet metric.
	pkts uint64
	// dataPkts and ackPkts are the packets hosts sent (traced runs only).
	dataPkts, ackPkts uint64
	events, retx      uint64
	// queueOps, enqueues and drops sum the traced wrappers; drr* are the
	// unwrapped fair queue's counters.
	queueOps, enqueues, drops uint64
	drrEnqueues, drrDrops     uint64
	flows, poolReuses         uint64
	// nextCalls and nextNs are the traced FlowStream pulls.
	nextCalls  uint64
	nextNs     int64
	meters     int
	simSeconds float64
	dumbbell   bool
}

// cellOutcome is one build-and-run of a cell.
type cellOutcome struct {
	result  any    // testbed.RunResult or testbed.StreamResult
	encoded []byte // gob encoding of result, for byte-identity checks
	buildNs int64  // testbed construction and flow setup
	runNs   int64  // Run / RunStream
	mallocs uint64 // heap allocations during the run
	counts  counts
}

// repSeed is the seed of a cell's first repetition, derived the way
// registry.RepeatRuns derives it from Options.Seed.
func repSeed(seed uint64) uint64 { return sim.NewRNG(seed).Split(0).Uint64() }

// runCell builds and runs c; tr == nil is the untraced experiment path.
func runCell(c cell, tr *tracer) (cellOutcome, error) {
	switch c.kind {
	case "sweep":
		return runSweepCell(c, tr)
	case "incast":
		return runIncastCell(c, tr)
	case "stream":
		return runStreamCell(c, tr)
	}
	return cellOutcome{}, fmt.Errorf("unknown cell kind %q", c.kind)
}

// timeRun runs one cell's simulation inside a testbed.run span, recording
// its wall time, allocations and encoded result.
func (o *cellOutcome) timeRun(tr *tracer, parent int, run func(span int) (any, error)) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	span := tr.begin("testbed.run", parent)
	start := time.Now()
	res, err := run(span)
	o.runNs = time.Since(start).Nanoseconds()
	tr.end(span)
	runtime.ReadMemStats(&after)
	o.mallocs = after.Mallocs - before.Mallocs
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res); err != nil {
		return err
	}
	o.result, o.encoded = res, buf.Bytes()
	return nil
}

// finish reads the counters every cell shares from the tracer.
func (o *cellOutcome) finish(tr *tracer, events uint64, meters int, d sim.Duration) {
	o.counts.events = events
	o.counts.meters = meters
	o.counts.simSeconds = d.Seconds()
	if tr == nil {
		return
	}
	o.counts.dataPkts, o.counts.ackPkts = tr.dataPkts, tr.ackPkts
	for _, q := range tr.queues {
		o.counts.queueOps += q.enqueues + q.dequeues
		o.counts.enqueues += q.enqueues
		o.counts.drops += q.drops
	}
	o.counts.nextCalls, o.counts.nextNs = tr.total("workload.next")
}

// runSweepCell is one repetition of the fig5 sweep's cubic MTU-1500 cell.
func runSweepCell(c cell, tr *tracer) (cellOutcome, error) {
	const paperTransferBytes = 50_000_000_000 // §4.3: 50 GB per run
	bytes := uint64(float64(paperTransferBytes) * c.scale)
	opts := testbed.Options{Seed: repSeed(c.seed)}
	var o cellOutcome
	root := tr.begin("cell.sweep", 0)
	start := time.Now()
	span := tr.begin("testbed.build", root)
	var tb *testbed.Testbed
	if tr == nil {
		tb = testbed.New(opts)
	} else {
		// testbed.New with the bottleneck queue it would build, wrapped.
		dcfg := netsim.DefaultDumbbell(1)
		dcfg.BottleneckQueue = tr.wrap(netsim.NewDropTail(dcfg.BufferBytes, dcfg.MarkBytes))
		tb = testbed.NewDumbbell(opts, dcfg)
		tr.observe(tb.Net.AllHosts())
	}
	tr.end(span)
	span = tr.begin("testbed.add_flow", root)
	_, err := tb.AddFlow(0, iperf.Spec{Bytes: bytes, CCA: "cubic", Config: tcp.Config{MTU: 1500}})
	tr.end(span)
	if err != nil {
		return o, err
	}
	o.buildNs = time.Since(start).Nanoseconds()
	var res testbed.RunResult
	err = o.timeRun(tr, root, func(int) (any, error) {
		var err error
		res, err = tb.Run(registry.DeadlineFor(bytes) * 4)
		return res, err
	})
	tr.end(root)
	if err != nil {
		return o, err
	}
	o.counts.dumbbell = true
	o.counts.pkts = tb.Net.Switch.RxPackets
	o.counts.retx = res.Retransmits
	o.counts.flows = 1
	o.finish(tr, res.EventsFired, len(tb.Meters), res.Duration)
	return o, nil
}

// defaultFatTreeQueue is the queue netsim builds for a port the NewQueue
// hook leaves to it.
func defaultFatTreeQueue(cfg netsim.FatTreeConfig, port netsim.FatTreePort) netsim.Queue {
	if port.Tier == netsim.TierHostUp {
		return netsim.NewDropTail(0, 0)
	}
	return netsim.NewDropTail(cfg.BufferBytes, cfg.MarkBytes)
}

// runIncastCell is one repetition of a fattree-incast fair cell: fanIn
// cubic senders spread over the racks into host 0, whose edge downlink is a
// DRR. Traced, every other port is wrapped; the DRR stays unwrapped (the
// testbed finds it by type to set weights) and is read through its stats.
func runIncastCell(c cell, tr *tracer) (cellOutcome, error) {
	const recv = netsim.NodeID(0)
	n := c.fanIn
	k := netsim.FatTreeArityFor(n)
	totalBytes := uint64(20 * registry.PaperGbit * c.scale)
	per := totalBytes / uint64(n)
	var o cellOutcome
	root := tr.begin("cell.incast", 0)
	start := time.Now()
	span := tr.begin("testbed.build", root)
	cfg := netsim.DefaultFatTree(k)
	cfg.ECMPSeed = c.seed
	cfg.NewQueue = func(port netsim.FatTreePort) netsim.Queue {
		if port.Tier == netsim.TierHostDown && port.Host == recv {
			return netsim.NewDRR(cfg.BufferBytes, cfg.MarkBytes)
		}
		if tr != nil {
			return tr.wrap(defaultFatTreeQueue(cfg, port))
		}
		return nil
	}
	tb := testbed.NewFatTree(testbed.Options{Seed: repSeed(c.seed), Shards: c.shards}, cfg)
	tb.WatchBottleneck(tb.Fat.HostDownlink(recv))
	tr.observe(tb.Fat.Hosts)
	tr.end(span)
	for _, src := range netsim.IncastHosts(k, n) {
		span := tr.begin("testbed.add_flow", root)
		cl, err := tb.AddFlowBetween(src, recv, iperf.Spec{Bytes: per, CCA: "cubic"})
		if err == nil {
			err = tb.SetWeight(cl.Report().Flow, 1/float64(n))
		}
		tr.end(span)
		if err != nil {
			return o, err
		}
	}
	o.buildNs = time.Since(start).Nanoseconds()
	var res testbed.RunResult
	err := o.timeRun(tr, root, func(int) (any, error) {
		var err error
		res, err = tb.Run(registry.DeadlineFor(totalBytes))
		return res, err
	})
	tr.end(root)
	if err != nil {
		return o, err
	}
	for _, sw := range tb.Fat.Switches() {
		o.counts.pkts += sw.RxPackets
	}
	drr := tb.Fat.HostDownlink(recv).Queue().Stats()
	o.counts.drrEnqueues, o.counts.drrDrops = drr.EnqueuedPackets, drr.DroppedPackets
	o.counts.retx = res.Retransmits
	o.counts.flows = uint64(n)
	o.finish(tr, res.EventsFired, len(tb.Meters), res.Duration)
	return o, nil
}

// runStreamCell is one repetition of the workload-scale cell for scaled
// web-search traffic at load 0.5 under envy admission. Traced, every port
// is wrapped and each FlowStream pull is a span.
func runStreamCell(c cell, tr *tracer) (cellOutcome, error) {
	const sizeFactor, load = 0.01, 0.5
	flows := int(math.Round(1e6 * c.scale))
	if flows < 200 {
		flows = 200
	}
	seed := repSeed(c.seed)
	var o cellOutcome
	root := tr.begin("cell.stream", 0)
	start := time.Now()
	span := tr.begin("testbed.build", root)
	cfg := netsim.DefaultFatTree(4)
	if tr != nil {
		cfg.NewQueue = func(port netsim.FatTreePort) netsim.Queue { return tr.wrap(defaultFatTreeQueue(cfg, port)) }
	}
	hostBps := float64(cfg.HostBps)
	envy := testbed.NewEnvyAdmission(energy.DefaultModel(), hostBps, tcp.DefaultConfig().MTU-tcp.HeaderBytes, "cubic")
	dist := traffic.Scaled{Dist: traffic.WebSearch(), Factor: sizeFactor}
	meanB := dist.Mean()
	lambda := load * hostBps / 8 / meanB
	deadline := sim.Duration((float64(flows)/lambda + float64(flows)*(meanB*8/hostBps+0.002) + 10) * float64(sim.Second))

	tb := testbed.NewFatTree(testbed.Options{Seed: seed, StreamStats: true}, cfg)
	hosts := tb.Fat.NumHosts()
	tb.TouchHost(0, false)
	for h := 1; h < hosts; h++ {
		tb.TouchHost(netsim.NodeID(h), true)
	}
	tr.observe(tb.Fat.Hosts)
	ws, err := traffic.NewStreamN(sim.NewRNG(seed), dist, load, hostBps, uint64(flows))
	tr.end(span)
	if err != nil {
		return o, err
	}
	o.buildNs = time.Since(start).Nanoseconds()
	i := 0
	next := func() (testbed.FlowArrival, bool) {
		f, ok := ws.Next()
		if !ok {
			return testbed.FlowArrival{}, false
		}
		a := testbed.FlowArrival{At: f.Start, Bytes: f.Bytes, Src: 1 + i%(hosts-1), Dst: 0}
		i++
		return a, true
	}
	var res testbed.StreamResult
	err = o.timeRun(tr, root, func(runSpan int) (any, error) {
		stream := testbed.FlowStreamFunc(next)
		if tr != nil {
			stream = func() (testbed.FlowArrival, bool) {
				span := tr.begin("workload.next", runSpan)
				a, ok := next()
				tr.end(span)
				return a, ok
			}
		}
		var err error
		res, err = tb.RunStream(stream, "cubic", envy, deadline)
		return res, err
	})
	tr.end(root)
	if err != nil {
		return o, err
	}
	for _, sw := range tb.Fat.Switches() {
		o.counts.pkts += sw.RxPackets
	}
	o.counts.retx = res.Retransmits
	o.counts.flows = res.Flows
	o.counts.poolReuses = res.PoolReuses
	o.finish(tr, res.EventsFired, len(tb.Meters), res.Duration)
	return o, nil
}
