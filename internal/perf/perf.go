// Package perf holds the simulator's microbenchmark bodies. They live in a
// normal (non-test) package so two consumers can share them:
//
//   - the `go test -bench` wrappers in internal/sim and internal/netsim,
//     which run them under the standard benchmark harness, and
//   - cmd/simbench, which runs them via testing.Benchmark and writes the
//     results to BENCH_sim.json, giving the repo a recorded perf
//     trajectory from PR to PR.
//
// Every body reports allocations: the engine hot path is supposed to be
// allocation-free, and these benchmarks are where that regression would
// first show.
package perf

import (
	"os"
	"testing"

	"greenenvy/internal/cache"
	"greenenvy/internal/iperf"
	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
	"greenenvy/internal/tcp"
	"greenenvy/internal/testbed"
	"greenenvy/internal/workload"
)

// BenchEngineEventLoop measures raw event throughput: a self-rescheduling
// callback chain, the pattern of every periodic sampler in the testbed.
// Steady state must be allocation-free (the fired event is recycled into
// the next After).
func BenchEngineEventLoop(b *testing.B) {
	e := sim.NewEngine()
	b.ReportAllocs()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(100, tick)
		}
	}
	b.ResetTimer()
	e.After(100, tick)
	e.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// idleOwner owns a timer whose firing does nothing.
type idleOwner struct{ t sim.Timer[idleOwner] }

func (*idleOwner) expire() {}

// BenchTimerRearm measures the cancel-and-rearm pattern of the TCP sender
// timers (RTO/TLP/pacing rearm on nearly every ACK): one pinned event moved
// in place per Reset, no allocation.
func BenchTimerRearm(b *testing.B) {
	e := sim.NewEngine()
	o := new(idleOwner)
	o.t.Init(e, o, (*idleOwner).expire)
	t := &o.t
	// A little background population so the heap fix is not trivially
	// root-only.
	for i := 0; i < 64; i++ {
		e.At(sim.Time(1000+i), func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Reset(sim.Duration(100 + i%7))
	}
	b.StopTimer()
	e.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rearms/s")
}

// countingSink counts delivered packets.
type countingSink struct{ n int }

// HandlePacket implements netsim.Handler.
func (s *countingSink) HandlePacket(p *netsim.Packet) { s.n++ }

// benchLinkPath pushes one wireSize-byte packet per iteration through a
// 10 Gb/s link with 5 µs propagation delay — enqueue, serialize, propagate,
// deliver — and reports packets/sec. This is the path the tentpole makes
// allocation-free; see the AllocsPerRun pins in internal/netsim.
func benchLinkPath(b *testing.B, wireSize, dataLen int) {
	e := sim.NewEngine()
	sink := &countingSink{}
	l := netsim.NewLink(e, "bench", 10_000_000_000, 5*sim.Microsecond, netsim.NewDropTail(1<<20, 0), sink)
	p := &netsim.Packet{Flow: 1, Dst: 1, WireSize: wireSize, DataLen: dataLen}
	run := func() {
		l.HandlePacket(p)
		e.Run()
	}
	for i := 0; i < 128; i++ {
		run() // warm the event pool and queue ring
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
}

// BenchLinkDataPacket is the MTU-1500 data-packet link path.
func BenchLinkDataPacket(b *testing.B) { benchLinkPath(b, 1500, 1460) }

// BenchLinkPureAck is the header-only pure-ACK link path.
func BenchLinkPureAck(b *testing.B) { benchLinkPath(b, tcp.HeaderBytes, 0) }

// BenchDropTailQueue measures steady-state FIFO enqueue/dequeue on the
// ring-buffer DropTail with a standing backlog.
func BenchDropTailQueue(b *testing.B) {
	q := netsim.NewDropTail(1<<30, 0)
	p := &netsim.Packet{WireSize: 1500}
	for i := 0; i < 64; i++ {
		q.Enqueue(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(p)
		q.Dequeue()
	}
}

// BenchDRRQueue measures the weighted-fair scheduler's per-packet cost with
// four competing flows backlogged.
func BenchDRRQueue(b *testing.B) {
	q := netsim.NewDRR(1<<30, 0)
	pkts := make([]*netsim.Packet, 4)
	for f := range pkts {
		pkts[f] = &netsim.Packet{Flow: netsim.FlowID(f), WireSize: 1500}
		q.SetWeight(netsim.FlowID(f), float64(f+1))
		for i := 0; i < 16; i++ {
			q.Enqueue(pkts[f])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(pkts[i%4])
		q.Dequeue()
	}
}

// cacheSampleResult is a realistically-shaped testbed.RunResult for the
// persistent-cache benchmarks: one flow's summary report, the payload a
// CCA-sweep cell repetition stores.
func cacheSampleResult() testbed.RunResult {
	rep := iperf.Report{
		Flow: 1, CCA: "cubic", MTU: 1500, Bytes: 50_000_000,
		Start: 0, End: 4_200_000_000, Seconds: 4.2, Bps: 9.5e9,
		Retransmits: 17, DataSent: 50_100_000,
	}
	return testbed.RunResult{
		Reports:         []iperf.Report{rep},
		SenderEnergyJ:   []float64{812.5},
		ReceiverEnergyJ: 798.25,
		TotalSenderJ:    812.5,
		Duration:        4_200_000_000,
		AvgSenderPowerW: 193.45,
		Retransmits:     17,
		BottleneckStats: netsim.QueueStats{EnqueuedPackets: 34257, DroppedPackets: 17, MaxBytes: 1 << 20},
	}
}

// benchCacheStore builds a throwaway store for the cache benchmarks; the
// caller must defer cleanup().
func benchCacheStore(b *testing.B) (s *cache.Store, cleanup func()) {
	dir, err := os.MkdirTemp("", "greenenvy-bench-cache")
	if err != nil {
		b.Fatal(err)
	}
	s, err = cache.Open(dir, "bench-stamp")
	if err != nil {
		os.RemoveAll(dir)
		b.Fatal(err)
	}
	return s, func() { os.RemoveAll(dir) }
}

// BenchSweepCacheWarm measures the warm-lookup path of the persistent
// result cache: key derivation plus decoding one cached sweep-cell
// repetition from disk. This is the per-repetition cost a fully warm
// `greenbench -fig all` pays instead of a simulation run.
func BenchSweepCacheWarm(b *testing.B) {
	s, cleanup := benchCacheStore(b)
	defer cleanup()
	key := cache.NewKey("sweep", "cubic", 1500, uint64(50_000_000), uint64(0x9e3779b97f4a7c15))
	if err := s.Put(key, cacheSampleResult()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out testbed.RunResult
		if !s.Get(key, &out) {
			b.Fatal("warm lookup missed")
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
}

// BenchSweepCacheCold measures the cold-lookup (miss) path: key derivation
// plus the failed stat/read of an absent entry — the overhead the cache
// adds to every first-time repetition before it simulates.
func BenchSweepCacheCold(b *testing.B) {
	s, cleanup := benchCacheStore(b)
	defer cleanup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out testbed.RunResult
		if s.Get(cache.NewKey("sweep", "cubic", 1500, uint64(50_000_000), uint64(i)), &out) {
			b.Fatal("absent key hit")
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
}

// BenchFatTreeBuild measures what one k=12 fat-tree costs to build: its
// 432 hosts, 180 switches and 2,592 links with their queues, routes and
// delay stages. Its allocs/op and bytes/op are the build's footprint.
func BenchFatTreeBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		netsim.NewFatTree(sim.NewEngine(), netsim.DefaultFatTree(12))
	}
}

// BenchFatTreeIncast runs a 32-to-1 cubic incast across a k=8 fat-tree —
// 32 senders spread over distinct edge racks converging on one host through
// table-routed switches and seeded ECMP — and reports the fabric's forwarding
// rate in packets/sec (every packet any switch forwarded, data and ACKs).
// This is the multi-tier counterpart of BenchDumbbellTransfer and the
// benchmark that would first show a regression in the range-route lookup or
// ECMP hash on the hot path.
func BenchFatTreeIncast(b *testing.B) {
	const (
		k       = 8
		senders = 32
		bytes   = 500_000 // per sender
	)
	b.ReportAllocs()
	var pkts uint64
	for i := 0; i < b.N; i++ {
		tb := testbed.NewFatTree(testbed.Options{Seed: 1}, netsim.DefaultFatTree(k))
		for s := 0; s < senders; s++ {
			// One sender per edge switch, round-robin, skipping the
			// receiver's host 0.
			src := netsim.NodeID(1 + s*(k/2)%(k*k*k/4-1))
			if _, err := tb.AddFlowBetween(src, 0, iperf.Spec{
				Bytes:  bytes,
				CCA:    "cubic",
				Config: tcp.Config{MTU: 1500},
			}); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := tb.Run(10 * sim.Second); err != nil {
			b.Fatal(err)
		}
		for _, sw := range tb.Fat.Switches() {
			pkts += sw.RxPackets
		}
	}
	b.ReportMetric(float64(pkts)/b.Elapsed().Seconds(), "pkts/s")
	b.ReportMetric(float64(pkts)/float64(b.N), "pkts/run")
}

// BenchWorkloadChurn measures the pooled flow-churn path: 2000 short cubic
// flows arriving back to back on the dumbbell testbed, recycled through the
// client free-list with streaming aggregation (no per-flow Reports). The
// reported allocated bytes/op are the whole-run footprint — the number that
// must stay flat as the flow count grows — and flows/s is the churn rate.
func BenchWorkloadChurn(b *testing.B) {
	const (
		flows   = 2000
		payload = 20_000
		gap     = 400 * sim.Microsecond
		senders = 4
	)
	b.ReportAllocs()
	var done uint64
	for i := 0; i < b.N; i++ {
		tb := testbed.New(testbed.Options{Seed: 1, Senders: senders})
		n := 0
		stream := testbed.FlowStreamFunc(func() (testbed.FlowArrival, bool) {
			if n >= flows {
				return testbed.FlowArrival{}, false
			}
			a := testbed.FlowArrival{At: sim.Time(n) * sim.Time(gap), Bytes: payload, Src: n % senders}
			n++
			return a, true
		})
		res, err := tb.RunStream(stream, "cubic", nil, 30*sim.Second)
		if err != nil {
			b.Fatal(err)
		}
		done += res.Flows
	}
	b.ReportMetric(float64(done)/b.Elapsed().Seconds(), "flows/s")
	b.ReportMetric(float64(done)/float64(b.N), "flows/run")
}

// BenchWorkloadScaleStreaming is a reduced cell of the workload-scale
// experiment: Poisson arrivals of scaled web-search flows converging on one
// host of a k=4 fat-tree through the streaming churn driver. End-to-end cost
// per replayed flow — generation, admission, pooled launch, P² aggregation —
// at production arrival statistics.
func BenchWorkloadScaleStreaming(b *testing.B) {
	const flows = 1000
	cfg := netsim.DefaultFatTree(4)
	hostBps := float64(cfg.HostBps)
	dist := workload.Scaled{Dist: workload.WebSearch(), Factor: 0.01}
	b.ReportAllocs()
	var done uint64
	for i := 0; i < b.N; i++ {
		tb := testbed.NewFatTree(testbed.Options{Seed: 1}, cfg)
		hosts := tb.Fat.NumHosts()
		tb.TouchHost(0, false)
		for h := 1; h < hosts; h++ {
			tb.TouchHost(netsim.NodeID(h), true)
		}
		ws, err := workload.NewStreamN(sim.NewRNG(1), dist, 0.5, hostBps, flows)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		stream := testbed.FlowStreamFunc(func() (testbed.FlowArrival, bool) {
			f, ok := ws.Next()
			if !ok {
				return testbed.FlowArrival{}, false
			}
			a := testbed.FlowArrival{At: f.Start, Bytes: f.Bytes, Src: 1 + n%(hosts-1), Dst: 0}
			n++
			return a, true
		})
		res, err := tb.RunStream(stream, "cubic", nil, 60*sim.Second)
		if err != nil {
			b.Fatal(err)
		}
		done += res.Flows
	}
	b.ReportMetric(float64(done)/b.Elapsed().Seconds(), "flows/s")
	b.ReportMetric(float64(done)/float64(b.N), "flows/run")
}

// BenchDumbbellTransfer runs a complete 25 MB cubic transfer across the
// paper's dumbbell testbed — TCP sender and receiver, bonded uplinks,
// switch, bottleneck queue, energy metering — and reports end-to-end
// simulated packets/sec (every packet the switch forwarded, data and ACKs).
func BenchDumbbellTransfer(b *testing.B) {
	const bytes = 25_000_000
	b.ReportAllocs()
	var pkts uint64
	for i := 0; i < b.N; i++ {
		tb := testbed.New(testbed.Options{Seed: 1})
		if _, err := tb.AddFlow(0, iperf.Spec{
			Bytes:  bytes,
			CCA:    "cubic",
			Config: tcp.Config{MTU: 1500},
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := tb.Run(10 * sim.Second); err != nil {
			b.Fatal(err)
		}
		pkts += tb.Net.Switch.RxPackets
	}
	b.ReportMetric(float64(pkts)/b.Elapsed().Seconds(), "pkts/s")
	b.ReportMetric(float64(pkts)/float64(b.N), "pkts/run")
}
