package testbed

import (
	"runtime"
	"testing"

	"greenenvy/internal/cca"
	"greenenvy/internal/iperf"
	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
	"greenenvy/internal/tcp"
)

// dumbbellTransferAllocs runs one transfer with the named algorithm across
// the default dumbbell, as BenchDumbbellTransfer does for cubic, and
// returns the heap allocations of the whole run (setup included), the
// bytes they took and the packets the switch forwarded.
func dumbbellTransferAllocs(t *testing.T, ccaName string, bytes uint64) (allocs, allocBytes, pkts int64) {
	t.Helper()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before, beforeBytes := ms.Mallocs, ms.TotalAlloc
	tb := New(Options{Seed: 1})
	if _, err := tb.AddFlow(0, iperf.Spec{Bytes: bytes, CCA: ccaName, Config: tcp.Config{MTU: 1500}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	return int64(ms.Mallocs - before), int64(ms.TotalAlloc - beforeBytes), int64(tb.Net.Switch.RxPackets)
}

// marginalAllocs runs the named algorithm's transfer at two sizes and
// returns the allocations and forwarded packets the larger run adds.
func marginalAllocs(t *testing.T, ccaName string, small, large uint64) (allocs, pkts int64) {
	t.Helper()
	aSmall, _, pSmall := dumbbellTransferAllocs(t, ccaName, small)
	aLarge, _, pLarge := dumbbellTransferAllocs(t, ccaName, large)
	pkts = pLarge - pSmall
	if pkts < pSmall/2 {
		t.Fatalf("%s: %d-byte run forwarded %d packets, %d-byte run %d", ccaName, large, pLarge, small, pSmall)
	}
	return aLarge - aSmall, pkts
}

// TestDumbbellTransferMarginalAllocsZero pins the steady-state packet path
// end to end: doubling a transfer from 25 MB to 50 MB doubles the packets
// but adds no allocations per packet. Whatever a run allocates is setup and
// the warm-up of pools and rings (event, packet, scoreboard, queue) that
// reach their peak size early; per-packet garbage would show here as the
// extra allocations scaling with the extra packets.
func TestDumbbellTransferMarginalAllocsZero(t *testing.T) {
	allocs, pkts := marginalAllocs(t, "cubic", 25_000_000, 50_000_000)
	t.Logf("marginal %.4f allocs/pkt over %d packets", float64(allocs)/float64(pkts), pkts)
	// Zero to two decimals: the few amortized doublings of run-length
	// series pass, a per-packet allocation on any path (even one packet in
	// two, such as unrecycled data packets) does not.
	if perHundred := 100 * allocs / pkts; perHundred != 0 {
		t.Fatalf("%d extra allocations for %d extra packets: %.2f per packet, want 0.00",
			allocs, pkts, float64(allocs)/float64(pkts))
	}
}

// TestDumbbellTransferBytes pins what one 25 MB cubic transfer weighs,
// setup included: 267,576 bytes (271,736 under -race). Most of it is state
// that grows with the window, so a fatter per-segment record shows here:
// with 72-byte segment records the run took 411,032 bytes.
func TestDumbbellTransferBytes(t *testing.T) {
	const limit = 300_000
	_, got, _ := dumbbellTransferAllocs(t, "cubic", 25_000_000)
	t.Logf("25 MB cubic transfer: %d bytes allocated", got)
	if got > limit {
		t.Fatalf("a 25 MB cubic transfer allocates %d bytes, want at most %d", got, limit)
	}
}

// TestEveryAlgorithmMarginalAllocs runs the marginal check for every
// registered algorithm at 5 MB and 10 MB, so the per-packet path each one
// drives (pacing, ECN marking, INT stamping, its own ACK and timeout steps)
// is pinned end to end.
func TestEveryAlgorithmMarginalAllocs(t *testing.T) {
	for _, name := range cca.Names() {
		t.Run(name, func(t *testing.T) {
			allocs, pkts := marginalAllocs(t, name, 5_000_000, 10_000_000)
			perPkt := float64(allocs) / float64(pkts)
			t.Logf("marginal %.4f allocs/pkt over %d packets", perPkt, pkts)
			if 100*allocs/pkts != 0 {
				t.Fatalf("%s: %d extra allocations for %d extra packets: %.2f per packet, want 0.00",
					name, allocs, pkts, perPkt)
			}
		})
	}
}

// streamAllocs replays n flows of 15 KB, arriving 20 µs apart, through a
// one-sender dumbbell under width-1 envy admission, and returns the heap
// allocations of the whole run and its result.
func streamAllocs(t *testing.T, n int) (int64, StreamResult) {
	t.Helper()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	tb := New(Options{Seed: 1})
	res, err := tb.RunStream(arithStream(n, 20*sim.Microsecond, 15_000, 1), "cubic", EnvyAdmission{MaxActive: 1}, 10*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	return int64(ms.Mallocs - before), res
}

// TestRunStreamMarginalAllocsZero pins RunStream's per-flow lifecycle:
// arrival, deferral to the wait queue, admission, a recycled client's
// Reset, completion and the streaming aggregates. Arrivals outpace the one
// admitted flow, so most flows wait. Doubling the stream from 1,000 to
// 2,000 flows adds no allocations per flow beyond the wait queue's blocks,
// one per arrivalBlock arrivals of peak backlog.
func TestRunStreamMarginalAllocsZero(t *testing.T) {
	a1, r1 := streamAllocs(t, 1000)
	a2, r2 := streamAllocs(t, 2000)
	if r1.Deferred == 0 || r2.Deferred == 0 {
		t.Fatalf("no flow waited for admission (deferred %d and %d)", r1.Deferred, r2.Deferred)
	}
	extra := int64(r2.Flows - r1.Flows)
	t.Logf("1000 flows: %d allocs, %d deferred; 2000 flows: %d allocs, %d deferred; marginal %.4f allocs/flow",
		a1, r1.Deferred, a2, r2.Deferred, float64(a2-a1)/float64(extra))
	if perHundred := 100 * (a2 - a1) / extra; perHundred != 0 {
		t.Fatalf("%d extra allocations for %d extra flows: %.2f per flow, want 0.00",
			a2-a1, extra, float64(a2-a1)/float64(extra))
	}
}

// incastAllocs runs n fair flows of 64 KB from distinct hosts of a k=8
// fat-tree into host 0, whose downlink is a DRR, as fattree-incast's fair
// cells do, and returns the heap allocations of the whole run.
func incastAllocs(t *testing.T, n int) int64 {
	t.Helper()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	cfg := netsim.DefaultFatTree(8)
	cfg.NewQueue = func(port netsim.FatTreePort) netsim.Queue {
		if port.Tier == netsim.TierHostDown && port.Host == 0 {
			return netsim.NewDRR(cfg.BufferBytes, cfg.MarkBytes)
		}
		return nil
	}
	tb := NewFatTree(Options{Seed: 1}, cfg)
	for _, src := range netsim.IncastHosts(cfg.K, n) {
		c, err := tb.AddFlowBetween(src, 0, iperf.Spec{Bytes: 64 << 10, CCA: "cubic"})
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.SetWeight(c.Flow(), 1/float64(n)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	return int64(ms.Mallocs - before)
}

// TestIncastMarginalAllocsPerFlow pins what one more fair incast flow
// costs: its client (one object holding its TCP endpoints, their energy
// accounts and the first arrays of their scoreboards) and its congestion
// controller, its sender's meter and sensor, its fair-queue state, and the
// pools and flow table that grow with the flows in flight, 7.38
// allocations (7.94 under -race, whose chunk allocations differ).
// Registering its completion hooks (the fair-queue release, the run's
// countdown) costs nothing: the testbed binds the release once and the
// client keeps its first hooks inline. Endpoints, accounts and a demux map
// per host allocated apart, and scoreboards grown from nil, cost 24.75; a
// release closure per flow and a hook slice grown from nil 3 more, a ring
// per link and switch for the packets in flight 8 more, and a first ring
// per queue its packets reach, rather than one carved from the fabric's
// store, about 6 more.
func TestIncastMarginalAllocsPerFlow(t *testing.T) {
	const n, limit = 16, 8.5
	a1, a2 := incastAllocs(t, n), incastAllocs(t, 2*n)
	per := float64(a2-a1) / n
	t.Logf("%d flows: %d allocs; %d flows: %d allocs; marginal %.2f allocs/flow", n, a1, 2*n, a2, per)
	if per > limit {
		t.Fatalf("each extra fair incast flow allocates %.2f objects, want at most %.1f", per, limit)
	}
}
