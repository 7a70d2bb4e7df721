package main

import (
	"flag"
	"fmt"
	"math"
	"testing"
	"time"

	"greenenvy/internal/cca"
	"greenenvy/internal/energy"
	"greenenvy/internal/iperf"
	"greenenvy/internal/netsim"
	"greenenvy/internal/perf"
	"greenenvy/internal/scenario"
	"greenenvy/internal/sim"
	"greenenvy/internal/stats"
	"greenenvy/internal/tcp"
	traffic "greenenvy/internal/workload"
)

// isoBench is one isolated layer cost: a body that drives one layer's
// public API in a loop under testing.Benchmark. name is its time per call
// in unit; allocs its allocations per call. A body that reports a
// "calls/op" metric performs that many layer calls per iteration, and both
// numbers are divided by it.
type isoBench struct {
	name, unit, allocs, allocUnit string
	fn                            func(*testing.B)
}

func iso(name, unit, allocs string, fn func(*testing.B)) isoBench {
	return isoBench{name: name, unit: unit, allocs: allocs, allocUnit: "allocs/op", fn: fn}
}

// isolatedBenches lists the isolated layer costs. The first six reuse the
// internal/perf bodies `go test -bench` and cmd/simbench run; the rest call
// layers no existing body reaches.
func isolatedBenches() []isoBench {
	list := []isoBench{
		iso("sim.event_ns", "ns", "sim.event_allocs", perf.BenchEngineEventLoop),
		iso("sim.timer_rearm_ns", "ns", "sim.timer_rearm_allocs", perf.BenchTimerRearm),
		iso("netsim.link_data_ns", "ns", "netsim.link_data_allocs", perf.BenchLinkDataPacket),
		iso("netsim.link_ack_ns", "ns", "netsim.link_ack_allocs", perf.BenchLinkPureAck),
		iso("netsim.droptail_ns", "ns", "netsim.droptail_allocs", perf.BenchDropTailQueue),
		iso("netsim.drr_ns", "ns", "netsim.drr_allocs", perf.BenchDRRQueue),
		iso("netsim.switch_exact_ns", "ns", "netsim.switch_exact_allocs", benchSwitchExact),
		iso("netsim.switch_ecmp_ns", "ns", "netsim.switch_ecmp_allocs", benchSwitchECMP),
		iso("netsim.fattree_build_ms", "ms", "netsim.fattree_build_allocs", benchFatTreeBuild),
		{name: "tcp.transfer_ns_per_pkt", unit: "ns/pkt", allocs: "tcp.transfer_allocs_per_pkt", allocUnit: "allocs/pkt", fn: benchTCPTransfer},
	}
	for _, name := range cca.PaperOrder() {
		list = append(list, iso("cca.onack_ns."+name, "ns", "cca.onack_allocs."+name, benchOnAck(name)))
	}
	return append(list,
		iso("energy.account_ns", "ns", "energy.account_allocs", benchAccount),
		iso("energy.sync_ns", "ns", "energy.sync_allocs", benchMeterSync),
		iso("iperf.client_reset_ns", "ns", "iperf.client_reset_allocs", benchClientReset),
		iso("stats.sketch_add_ns", "ns", "stats.sketch_add_allocs", benchSketchAdd),
		iso("workload.next_ns", "ns", "workload.next_allocs", benchStreamNext),
		iso("scenario.compile_us", "us", "scenario.compile_allocs", benchScenarioCompile),
	)
}

// unitNs converts a time unit of the table above to nanoseconds.
var unitNs = map[string]float64{"ns": 1, "ns/pkt": 1, "us": 1e3, "ms": 1e6}

// runIsolated runs every isolated body for about benchtime each and stores
// each time and allocation count in m; raw holds the times in ns per call
// for the ledger.
func runIsolated(benchtime time.Duration, m map[string]metricValue) (raw map[string]float64, err error) {
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		return nil, err
	}
	raw = map[string]float64{}
	for _, ib := range isolatedBenches() {
		r := testing.Benchmark(ib.fn)
		if r.N == 0 {
			return nil, fmt.Errorf("isolated body %s failed", ib.name)
		}
		calls := float64(r.N)
		if x := r.Extra["calls/op"]; x > 0 {
			calls *= x
		}
		ns := float64(r.T.Nanoseconds()) / calls
		raw[ib.name] = ns
		m[ib.name] = metricValue{Value: ns / unitNs[ib.unit], Unit: ib.unit}
		m[ib.allocs] = metricValue{Value: float64(r.MemAllocs) / calls, Unit: ib.allocUnit}
	}
	return raw, nil
}

// benchSink keeps results of bodies whose only product is a value alive.
var benchSink any

// discard is a packet handler that drops everything it receives.
var discard = netsim.HandlerFunc(func(*netsim.Packet) {})

// benchSwitchExact forwards through a dumbbell-style switch: exact routes
// per host, the fixed pipeline delay, delivery to the output port.
func benchSwitchExact(b *testing.B) {
	e := sim.NewEngine()
	sw := netsim.NewSwitch(e, "bench", sim.Microsecond)
	sw.SetTTL(math.MaxInt)
	for h := 0; h < 4; h++ {
		sw.Connect(netsim.NodeID(h), discard)
	}
	p := &netsim.Packet{Flow: 1, Dst: 2, WireSize: 1500, DataLen: 1440}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.HandlePacket(p)
		e.Run()
	}
}

// benchSwitchECMP forwards like a fat-tree aggregation switch toward a
// remote pod: the exact lookup misses, the narrow pod-local ranges do not
// cover the destination, and the flow hash picks one of four uplinks.
func benchSwitchECMP(b *testing.B) {
	e := sim.NewEngine()
	sw := netsim.NewSwitch(e, "bench", sim.Microsecond)
	sw.SetTTL(math.MaxInt)
	sw.SetECMPSalt(0x5eed)
	sw.ConnectRange(0, 1, discard)
	sw.ConnectRange(2, 3, discard)
	sw.ConnectRange(0, 127, discard, discard, discard, discard)
	p := &netsim.Packet{Dst: 100, WireSize: 1500, DataLen: 1440}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Flow = netsim.FlowID(i & 63)
		sw.HandlePacket(p)
		e.Run()
	}
}

// benchFatTreeBuild wires the largest fabric fattree-incast uses at full
// scale (k=16: 1024 hosts, 320 switches).
func benchFatTreeBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = netsim.NewFatTree(sim.NewEngine(), netsim.DefaultFatTree(16))
	}
}

// benchTCPTransfer moves 25 MB with a cubic iperf client over one direct
// 10 Gb/s link with a 1 MiB drop-tail queue and no energy accounts: TCP
// sender and receiver, CCA, one link hop and their events, per packet sent
// by either host (data and ACKs). Sender pacing matches the testbed's.
func benchTCPTransfer(b *testing.B) {
	const bytes = 25_000_000
	txCost := energy.DefaultModel().Costs.TxPathCost
	b.ReportAllocs()
	var pkts uint64
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		src, dst := netsim.NewHost(0, "src"), netsim.NewHost(1, "dst")
		src.SetEgress(netsim.NewLink(e, "fwd", 10_000_000_000, 5*sim.Microsecond, netsim.NewDropTail(1<<20, 0), dst))
		dst.SetEgress(netsim.NewLink(e, "rev", 10_000_000_000, 5*sim.Microsecond, netsim.NewDropTail(0, 0), src))
		c, err := iperf.NewClient(e, iperf.Spec{
			Flow: 1, Bytes: bytes, CCA: "cubic",
			Config: tcp.Config{MTU: 1500, TxPathCost: txCost, NICRateBps: 20_000_000_000},
		}, src, dst, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		c.Start()
		e.RunUntil(sim.Time(10 * sim.Second))
		if !c.Done() {
			b.Fatal("transfer incomplete")
		}
		pkts += src.TxPackets + dst.TxPackets
	}
	b.ReportMetric(float64(pkts)/float64(b.N), "calls/op")
}

// stubConn is the sender state a congestion controller observes, advanced
// by hand so OnAck runs without a transport.
type stubConn struct {
	now      sim.Time
	inflight int
}

func (c *stubConn) Now() sim.Time        { return c.now }
func (c *stubConn) MSS() int             { return 1440 }
func (c *stubConn) SRTT() sim.Duration   { return 60 * sim.Microsecond }
func (c *stubConn) MinRTT() sim.Duration { return 50 * sim.Microsecond }
func (c *stubConn) BytesInFlight() int   { return c.inflight }

// benchOnAck feeds one algorithm a fixed ACK sequence — two segments per
// ACK, a jittered 50–65 µs RTT, a round per 64 ACKs — with a loss every
// 1024 ACKs, as a bulk flow's sender delivers them.
func benchOnAck(name string) func(*testing.B) {
	return func(b *testing.B) {
		cc, err := cca.New(name)
		if err != nil {
			b.Fatal(err)
		}
		conn := &stubConn{inflight: 64 * 1440}
		cc.Init(conn)
		var delivered uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			conn.now += sim.Microsecond
			delivered += 2 * 1440
			cc.OnAck(conn, cca.AckInfo{
				AckedBytes:   2 * 1440,
				RTT:          50*sim.Microsecond + sim.Duration(i&15)*sim.Microsecond,
				Delivered:    delivered,
				DeliveryRate: 1.2e9,
				RoundTrips:   uint64(i / 64),
			})
			if i&1023 == 1023 {
				cc.OnLoss(conn)
			}
		}
	}
}

// benchAccount charges one data packet and one ACK to a sender's meter, the
// accounting every host packet pair costs.
func benchAccount(b *testing.B) {
	model := energy.DefaultModel()
	a := energy.NewAccount(energy.NewMeter(sim.NewEngine(), model.Curve, model.Costs), "cubic")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.SentData(false, 64<<10)
		a.ReceivedAck()
	}
}

// benchMeterSync integrates one 1 ms sampling interval of a meter, the
// testbed sampler's per-host work.
func benchMeterSync(b *testing.B) {
	model := energy.DefaultModel()
	m := energy.NewMeter(sim.NewEngine(), model.Curve, model.Costs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AddWork(1e-5)
		m.SyncAt(sim.Time(i+1) * sim.Millisecond)
	}
}

// benchClientReset rebinds a pooled iperf client to a new mouse flow, the
// streaming driver's per-flow setup after warm-up.
func benchClientReset(b *testing.B) {
	model := energy.DefaultModel()
	e := sim.NewEngine()
	src, dst := netsim.NewHost(0, "src"), netsim.NewHost(1, "dst")
	acct := energy.NewAccount(energy.NewMeter(e, model.Curve, model.Costs), "cubic")
	spec := iperf.Spec{Flow: 1, Bytes: 20_000, CCA: "cubic", NoIntervals: true,
		Config: tcp.Config{TxPathCost: model.Costs.TxPathCost, NICRateBps: 10_000_000_000}}
	c, err := iperf.NewClient(e, spec, src, dst, acct, acct)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Bytes = 20_000 + uint64(i&7)*1440
		if err := c.Reset(spec, src, dst, acct, acct); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSketchAdd folds flow completion times into the streaming P99 sketch.
func benchSketchAdd(b *testing.B) {
	rng := sim.NewRNG(1)
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = rng.Float64() * 1e-3
	}
	s := stats.NewQuantileSketch(0.99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(xs[i&4095])
	}
	benchSink = s.Value()
}

// benchStreamNext draws arrivals from the workload-scale generator: scaled
// web-search sizes at load 0.5 on a 10 Gb/s host link.
func benchStreamNext(b *testing.B) {
	dist := traffic.Scaled{Dist: traffic.WebSearch(), Factor: 0.01}
	ws, err := traffic.NewStreamN(sim.NewRNG(1), dist, 0.5, 10e9, uint64(b.N))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, ok := ws.Next()
		if !ok {
			b.Fatal("stream ended early")
		}
		benchSink = f.Bytes
	}
}

// benchScenarioCompile is the builtin aqm-matrix spec's path at package
// init: Canonical, Digest, Compile.
func benchScenarioCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec, _ := scenario.Builtin("aqm-matrix")
		c, err := spec.Canonical()
		if err == nil {
			_, err = c.Digest()
		}
		if err == nil {
			benchSink, err = scenario.Compile(spec)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
