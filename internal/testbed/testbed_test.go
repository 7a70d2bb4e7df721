package testbed

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"greenenvy/internal/iperf"
	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
)

const gbit = 1_000_000_000 / 8 // bytes per Gbit

func TestSingleFlowRun(t *testing.T) {
	tb := New(Options{Seed: 1})
	_, err := tb.AddFlow(0, iperf.Spec{Bytes: 10 * gbit, CCA: "cubic"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.Run(30 * sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 || res.Reports[0].Bytes != 10*gbit {
		t.Fatalf("report = %+v", res.Reports[0])
	}
	// 10 Gbit at ~10 Gb/s ≈ 1 s (plus header overhead ~0.7%).
	if res.Duration < 900*sim.Millisecond || res.Duration > 1300*sim.Millisecond {
		t.Fatalf("duration = %v, want ~1s", res.Duration)
	}
	// Sender energy ≈ p(10G) × 1s ≈ 36 J.
	if res.TotalSenderJ < 30 || res.TotalSenderJ > 45 {
		t.Fatalf("sender energy = %v J, want ~36", res.TotalSenderJ)
	}
	if res.AvgSenderPowerW < 30 || res.AvgSenderPowerW > 40 {
		t.Fatalf("avg power = %v W, want ~36", res.AvgSenderPowerW)
	}
}

func TestFairShareEnergyMatchesPaperArithmetic(t *testing.T) {
	// The fair scenario of §4.1: two flows, 10 Gbit each, at 5 Gb/s each
	// via WFQ; both finish ~2 s; total sender energy ~137 J.
	tb := New(Options{Senders: 2, UseDRR: true, Seed: 2})
	for i := 0; i < 2; i++ {
		c, err := tb.AddFlow(i, iperf.Spec{Bytes: 10 * gbit, CCA: "cubic"})
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.SetWeight(c.Report().Flow, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	res, err := tb.Run(30 * sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration < 1900*sim.Millisecond || res.Duration > 2500*sim.Millisecond {
		t.Fatalf("duration = %v, want ~2s", res.Duration)
	}
	if math.Abs(res.TotalSenderJ-137) > 12 {
		t.Fatalf("fair energy = %.1f J, want ~137 (paper §4.1)", res.TotalSenderJ)
	}
}

func TestSerialScheduleSavesEnergy(t *testing.T) {
	// "Full speed, then idle": flow 2 starts when flow 1 finishes. Total
	// sender energy ~114.6 J, ≈16% below fair (paper §4.1).
	run := func() RunResult {
		tb := New(Options{Senders: 2, Seed: 3})
		if _, err := tb.AddFlow(0, iperf.Spec{Bytes: 10 * gbit, CCA: "cubic"}); err != nil {
			t.Fatal(err)
		}
		// Start the second flow after the first completes (~1.01 s at
		// line rate with header overhead).
		if _, err := tb.AddFlow(1, iperf.Spec{Bytes: 10 * gbit, CCA: "cubic", StartAt: 1020 * sim.Millisecond}); err != nil {
			t.Fatal(err)
		}
		res, err := tb.Run(30 * sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if math.Abs(res.TotalSenderJ-114.6) > 10 {
		t.Fatalf("serial energy = %.1f J, want ~114.6", res.TotalSenderJ)
	}
}

func TestLoadedHostRaisesPower(t *testing.T) {
	tb := New(Options{Seed: 4})
	if err := tb.AddLoad(0, 0.75); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddFlow(0, iperf.Spec{Bytes: 5 * gbit, CCA: "cubic"}); err != nil {
		t.Fatal(err)
	}
	res, err := tb.Run(30 * sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	senderW := res.SenderEnergyJ[0] / res.Duration.Seconds()
	if senderW < 100 || senderW > 120 {
		t.Fatalf("loaded sender power = %.1f W, want ~108 (Fig 4)", senderW)
	}
}

// TestAddLoadSetsBaseLoad: 16 busy cores of 32 put the loaded sender's
// meter at base load 0.5 and leave the other sender idle.
func TestAddLoadSetsBaseLoad(t *testing.T) {
	tb := New(Options{Seed: 1, Senders: 2})
	if err := tb.AddLoad(1, 16.0/32); err != nil {
		t.Fatal(err)
	}
	if got := tb.SenderMeter(1).BaseLoad(); got != 0.5 {
		t.Fatalf("meter base load = %v, want 0.5", got)
	}
	if got := tb.SenderMeter(0).BaseLoad(); got != 0 {
		t.Fatalf("unloaded sender 0 at base load %v", got)
	}
}

// TestAddLoadRoundsToWholeCores: a load fraction runs on whole busy cores,
// as `stress --cpu N` does, so the meter's base load is a multiple of one
// core in 32.
func TestAddLoadRoundsToWholeCores(t *testing.T) {
	for _, c := range []struct{ frac, want float64 }{
		{0, 0}, {0.01, 0}, {0.02, 1.0 / 32}, {0.75, 24.0 / 32}, {1, 1},
	} {
		tb := New(Options{Seed: 1, Senders: 2})
		if err := tb.AddLoad(1, c.frac); err != nil {
			t.Fatalf("AddLoad(1, %v): %v", c.frac, err)
		}
		if got := tb.SenderMeter(1).BaseLoad(); got != c.want {
			t.Errorf("AddLoad(1, %v): base load %v, want %v", c.frac, got, c.want)
		}
		if got := tb.SenderMeter(0).BaseLoad(); got != 0 {
			t.Errorf("AddLoad(1, %v) loaded sender 0 to %v", c.frac, got)
		}
	}
}

// TestAddLoadValidation: AddLoad rejects a fraction outside [0, 1], a
// sender the dumbbell does not have, and a fat-tree testbed, whose meters
// are made in first-use order and carry no sender index.
func TestAddLoadValidation(t *testing.T) {
	tb := New(Options{Seed: 1, Senders: 2})
	for _, c := range []struct {
		sender int
		frac   float64
	}{{0, -0.1}, {0, 33.0 / 32}, {0, 1.5}, {0, math.NaN()}, {-1, 0.5}, {2, 0.5}} {
		if err := tb.AddLoad(c.sender, c.frac); err == nil {
			t.Errorf("AddLoad(%d, %v) accepted", c.sender, c.frac)
		}
	}
	for i := 0; i < 2; i++ {
		if got := tb.SenderMeter(i).BaseLoad(); got != 0 {
			t.Errorf("rejected loads left sender %d at base load %v", i, got)
		}
	}
	fat := NewFatTree(Options{Seed: 1}, netsim.DefaultFatTree(4))
	if err := fat.AddLoad(0, 0.5); err == nil {
		t.Error("AddLoad on a fat-tree testbed accepted")
	}
}

func TestRateLimitedFlowPower(t *testing.T) {
	// iperf -b 5G on one sender: power should land on the paper's
	// 34.23 W anchor.
	tb := New(Options{Seed: 5})
	if _, err := tb.AddFlow(0, iperf.Spec{Bytes: 5 * gbit, CCA: "cubic", TargetBps: 5_000_000_000}); err != nil {
		t.Fatal(err)
	}
	res, err := tb.Run(30 * sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	w := res.SenderEnergyJ[0] / res.Duration.Seconds()
	if math.Abs(w-34.23) > 1.5 {
		t.Fatalf("5 Gb/s power = %.2f W, want ~34.23 (Fig 2)", w)
	}
}

func TestRunTwicePanics(t *testing.T) {
	tb := New(Options{Seed: 6})
	if _, err := tb.AddFlow(0, iperf.Spec{Bytes: gbit, CCA: "reno"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Run(10 * sim.Second); err == nil {
		t.Fatal("second Run should error")
	}
}

func TestRunWithoutFlowsErrors(t *testing.T) {
	tb := New(Options{Seed: 7})
	if _, err := tb.Run(sim.Second); err == nil {
		t.Fatal("Run with no flows should error")
	}
}

func TestDeadlineExceededErrors(t *testing.T) {
	tb := New(Options{Seed: 8})
	if _, err := tb.AddFlow(0, iperf.Spec{Bytes: 100 * gbit, CCA: "cubic"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Run(100 * sim.Millisecond); err == nil {
		t.Fatal("want deadline error")
	}
}

func TestInvalidSenderIndex(t *testing.T) {
	tb := New(Options{Seed: 9})
	if _, err := tb.AddFlow(5, iperf.Spec{Bytes: gbit, CCA: "cubic"}); err == nil {
		t.Fatal("out-of-range sender accepted")
	}
}

func TestSetWeightWithoutDRR(t *testing.T) {
	tb := New(Options{Seed: 10})
	if err := tb.SetWeight(1, 0.5); err == nil {
		t.Fatal("SetWeight on FIFO bottleneck should error")
	}
}

func TestRepetitionsVaryButCluster(t *testing.T) {
	root := sim.NewRNG(42)
	var results []RunResult
	for rep := uint64(0); rep < 3; rep++ {
		tb := New(Options{Seed: root.Split(rep).Uint64()})
		if _, err := tb.AddFlow(0, iperf.Spec{Bytes: 2 * gbit, CCA: "cubic"}); err != nil {
			t.Fatal(err)
		}
		r, err := tb.Run(10 * sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	e0 := results[0].TotalSenderJ
	varied := false
	for _, r := range results[1:] {
		if r.TotalSenderJ != e0 {
			varied = true
		}
		if math.Abs(r.TotalSenderJ-e0)/e0 > 0.05 {
			t.Fatalf("repetition spread too wide: %v vs %v", r.TotalSenderJ, e0)
		}
	}
	if !varied {
		t.Fatal("repetitions identical; measurement noise not applied")
	}
}

func TestFatTreeTestbedEndToEnd(t *testing.T) {
	// A cross-pod incast on a k=4 tree: 3 senders on distinct racks into
	// one receiver. Every byte must arrive with no no-route drops, and
	// sender/receiver energy groups must both be populated.
	cfg := netsim.DefaultFatTree(4)
	tb := NewFatTree(Options{Seed: 7}, cfg)
	for i, src := range []netsim.NodeID{4, 8, 12} {
		if _, err := tb.AddFlowBetween(src, 0, iperf.Spec{Bytes: gbit, CCA: "cubic", Flow: netsim.FlowID(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	tb.WatchBottleneck(tb.Fat.HostDownlink(0))
	res, err := tb.Run(30 * sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 3 {
		t.Fatalf("reports = %d", len(res.Reports))
	}
	for _, r := range res.Reports {
		if r.Bytes != gbit {
			t.Fatalf("flow %d delivered %d of %d bytes", r.Flow, r.Bytes, gbit)
		}
	}
	if res.NoRouteDrops != 0 {
		t.Fatalf("NoRouteDrops = %d, want 0", res.NoRouteDrops)
	}
	if len(res.SenderEnergyJ) != 3 || res.TotalSenderJ <= 0 || res.ReceiverEnergyJ <= 0 {
		t.Fatalf("energy accounting: senders=%v receiver=%v", res.SenderEnergyJ, res.ReceiverEnergyJ)
	}
	// 3 Gbit share one 10 Gb/s downlink: at least ~0.3 s.
	if res.Duration < 250*sim.Millisecond {
		t.Fatalf("duration = %v, implausibly fast for a shared 10G downlink", res.Duration)
	}
	if res.BottleneckStats.EnqueuedPackets == 0 {
		t.Fatal("watched bottleneck saw no packets")
	}
}

func TestFatTreeTestbedValidation(t *testing.T) {
	cfg := netsim.DefaultFatTree(4)
	tb := NewFatTree(Options{Seed: 1}, cfg)
	if _, err := tb.AddFlow(0, iperf.Spec{Bytes: 1, CCA: "cubic"}); err == nil {
		t.Fatal("AddFlow on a fat-tree testbed did not error")
	}
	if _, err := tb.AddFlowBetween(0, 0, iperf.Spec{Bytes: 1, CCA: "cubic"}); err == nil {
		t.Fatal("src == dst did not error")
	}
	if _, err := tb.AddFlowBetween(0, 99, iperf.Spec{Bytes: 1, CCA: "cubic"}); err == nil {
		t.Fatal("out-of-range dst did not error")
	}
	// On the dumbbell, AddFlow(i) is AddFlowBetween(i, receiver): the same
	// flow through the same setup, so the runs are gob-identical.
	run := func(between bool) []byte {
		t.Helper()
		tb := New(Options{Senders: 2, Seed: 1})
		for i := 0; i < 2; i++ {
			spec := iperf.Spec{Bytes: 2_000_000, CCA: "cubic"}
			var err error
			if between {
				_, err = tb.AddFlowBetween(netsim.NodeID(i), tb.Net.Receiver.ID, spec)
			} else {
				_, err = tb.AddFlow(i, spec)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		res, err := tb.Run(10 * sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := run(false), run(true); !bytes.Equal(a, b) {
		t.Fatal("AddFlowBetween(i, receiver) and AddFlow(i) runs differ")
	}
	dumb := New(Options{Seed: 1})
	if _, err := dumb.AddFlowBetween(1, 1, iperf.Spec{Bytes: 1, CCA: "cubic"}); err == nil {
		t.Fatal("dumbbell flow from the receiver to itself did not error")
	}
	if _, err := dumb.AddFlow(1, iperf.Spec{Bytes: 1, CCA: "cubic"}); err == nil {
		t.Fatal("dumbbell AddFlow from the receiver did not error")
	}
}

// TestTestbedBuildAllocs pins what building a testbed and adding its flows
// allocates: a dumbbell with one flow per sender, and a fat-tree incast of
// n flows into host 0 as fattree-incast's serial cells build it. The
// counts stay within the limits because the host table reuses the
// topology's host slices and the meter registry is sized for every host up
// front; a table built with AllHosts and meter slices grown by append
// exceed them.
func TestTestbedBuildAllocs(t *testing.T) {
	for _, c := range []struct {
		senders int
		limit   float64
	}{{1, 50}, {2, 70}, {16, 316}} {
		got := testing.AllocsPerRun(10, func() {
			tb := New(Options{Senders: c.senders, Seed: 1})
			for i := 0; i < c.senders; i++ {
				if _, err := tb.AddFlow(i, iperf.Spec{Bytes: 1 << 20, CCA: "cubic"}); err != nil {
					t.Fatal(err)
				}
			}
		})
		t.Logf("dumbbell, %d senders: %.0f allocations", c.senders, got)
		if got > c.limit {
			t.Errorf("dumbbell with %d senders: %.0f allocations, want at most %.0f", c.senders, got, c.limit)
		}
	}
	for _, c := range []struct {
		n     int
		limit float64
	}{{16, 278}, {256, 3056}} {
		k := netsim.FatTreeArityFor(c.n)
		senders := netsim.IncastHosts(k, c.n)
		got := testing.AllocsPerRun(5, func() {
			tb := NewFatTree(Options{Seed: 1}, netsim.DefaultFatTree(k))
			for _, src := range senders {
				if _, err := tb.AddFlowBetween(src, 0, iperf.Spec{Bytes: 1 << 20, CCA: "cubic"}); err != nil {
					t.Fatal(err)
				}
			}
		})
		t.Logf("fat-tree k=%d, %d-flow incast: %.0f allocations", k, c.n, got)
		if got > c.limit {
			t.Errorf("fat-tree k=%d incast of %d: %.0f allocations, want at most %.0f", k, c.n, got, c.limit)
		}
	}
}

// TestFatTreeDRRTeardownReclaimsState runs a fair incast with a DRR on the
// receiver downlink and checks flow completion releases scheduler state —
// the leak fix observed at the testbed layer.
func TestFatTreeDRRTeardownReclaimsState(t *testing.T) {
	cfg := netsim.DefaultFatTree(4)
	var drr *netsim.DRR
	cfg.NewQueue = func(p netsim.FatTreePort) netsim.Queue {
		if p.Tier == netsim.TierHostDown && p.Host == 0 {
			drr = netsim.NewDRR(cfg.BufferBytes, 0)
			return drr
		}
		return nil
	}
	tb := NewFatTree(Options{Seed: 11}, cfg)
	for i, src := range []netsim.NodeID{4, 8} {
		c, err := tb.AddFlowBetween(src, 0, iperf.Spec{Bytes: gbit / 4, CCA: "cubic", Flow: netsim.FlowID(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.SetWeight(c.Report().Flow, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if drr == nil {
		t.Fatal("NewQueue hook never installed the DRR")
	}
	if _, err := tb.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if n := drr.FlowTableSize(); n != 0 {
		t.Fatalf("DRR holds %d flows after all flows completed, want 0", n)
	}
}
