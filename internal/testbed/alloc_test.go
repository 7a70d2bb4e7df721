package testbed

import (
	"runtime"
	"testing"

	"greenenvy/internal/iperf"
	"greenenvy/internal/sim"
	"greenenvy/internal/tcp"
)

// dumbbellTransferAllocs runs one cubic transfer across the default
// dumbbell, as BenchDumbbellTransfer does, and returns the heap allocations
// of the whole run (setup included) and the packets the switch forwarded.
func dumbbellTransferAllocs(t *testing.T, bytes uint64) (allocs, pkts int64) {
	t.Helper()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	tb := New(Options{Seed: 1})
	if _, err := tb.AddFlow(0, iperf.Spec{Bytes: bytes, CCA: "cubic", Config: tcp.Config{MTU: 1500}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	return int64(ms.Mallocs - before), int64(tb.Net.Switch.RxPackets)
}

// TestDumbbellTransferMarginalAllocsZero pins the steady-state packet path
// end to end: doubling a transfer from 25 MB to 50 MB doubles the packets
// but adds no allocations per packet. Whatever a run allocates is setup and
// the warm-up of pools and rings (event, packet, scoreboard, queue) that
// reach their peak size early; per-packet garbage would show here as the
// extra allocations scaling with the extra packets.
func TestDumbbellTransferMarginalAllocsZero(t *testing.T) {
	a25, p25 := dumbbellTransferAllocs(t, 25_000_000)
	a50, p50 := dumbbellTransferAllocs(t, 50_000_000)
	extra := p50 - p25
	if extra < p25/2 {
		t.Fatalf("50 MB run forwarded %d packets, 25 MB run %d", p50, p25)
	}
	t.Logf("25 MB: %d allocs, %d pkts; 50 MB: %d allocs, %d pkts; marginal %.4f allocs/pkt",
		a25, p25, a50, p50, float64(a50-a25)/float64(extra))
	// Zero to two decimals: the few amortized doublings of run-length
	// series pass, a per-packet allocation on any path (even one packet in
	// two, such as unrecycled data packets) does not.
	if perHundred := 100 * (a50 - a25) / extra; perHundred != 0 {
		t.Fatalf("%d extra allocations for %d extra packets: %.2f per packet, want 0.00",
			a50-a25, extra, float64(a50-a25)/float64(extra))
	}
}
