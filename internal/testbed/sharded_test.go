package testbed

import (
	"reflect"
	"testing"

	"greenenvy/internal/iperf"
	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
)

// shardedIncastResult builds one fixed cross-pod workload on a k=4 tree and
// runs it on the sharded engine with the given worker count. The workload
// exercises every cross-shard mechanism at once: a 3-sender incast into pod
// 0 (packet conduits), a same-pod flow (non-split client with interval
// stats), and a chained start whose predecessor completes on another shard
// (control conduits).
func shardedIncastResult(t *testing.T, workers int) RunResult {
	t.Helper()
	cfg := netsim.DefaultFatTree(4)
	tb := NewFatTree(Options{Seed: 7, Shards: workers}, cfg)
	for _, src := range []netsim.NodeID{4, 8, 12} {
		if _, err := tb.AddFlowBetween(src, 0, iperf.Spec{Bytes: gbit / 8, CCA: "cubic"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.AddFlowBetween(2, 3, iperf.Spec{Bytes: gbit / 16, CCA: "reno"}); err != nil {
		t.Fatal(err)
	}
	c1, err := tb.AddFlowBetween(5, 1, iperf.Spec{Bytes: gbit / 16, CCA: "cubic"})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := tb.AddFlowBetween(9, 2, iperf.Spec{Bytes: gbit / 16, CCA: "cubic"})
	if err != nil {
		t.Fatal(err)
	}
	c2.StartAfter(c1)
	tb.WatchBottleneck(tb.Fat.HostDownlink(0))
	res, err := tb.Run(30 * sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardedFatTreeDeterministicAcrossWorkers is the testbed-level
// statement of the same-seed-same-bytes contract: a fixed partition must
// produce byte-identical results no matter how many workers execute it.
func TestShardedFatTreeDeterministicAcrossWorkers(t *testing.T) {
	golden := shardedIncastResult(t, 1)

	if len(golden.Reports) != 6 {
		t.Fatalf("reports = %d, want 6", len(golden.Reports))
	}
	for i, r := range golden.Reports {
		var want uint64 = gbit / 8
		if i >= 3 {
			want = gbit / 16
		}
		if r.Bytes != want {
			t.Fatalf("flow %d delivered %d of %d bytes", r.Flow, r.Bytes, want)
		}
	}
	if golden.NoRouteDrops != 0 {
		t.Fatalf("NoRouteDrops = %d, want 0", golden.NoRouteDrops)
	}
	if len(golden.SenderEnergyJ) != 6 || golden.TotalSenderJ <= 0 || golden.ReceiverEnergyJ <= 0 {
		t.Fatalf("energy accounting: senders=%v receiver=%v", golden.SenderEnergyJ, golden.ReceiverEnergyJ)
	}
	if golden.EventsFired == 0 {
		t.Fatal("EventsFired = 0")
	}
	// The chained flow must have started only after its predecessor
	// finished (plus the relay's lookahead crossing).
	if s := golden.Reports[5].Start; s <= golden.Reports[4].End {
		t.Fatalf("chained flow started at %v, predecessor ended %v", s, golden.Reports[4].End)
	}

	for _, workers := range []int{2, 4} {
		got := shardedIncastResult(t, workers)
		if !reflect.DeepEqual(got, golden) {
			t.Fatalf("RunResult at %d workers diverged from 1 worker:\n got:  %+v\n want: %+v", workers, got, golden)
		}
	}
}

// TestDumbbellIgnoresShards pins the degenerate case: a dumbbell is a
// single partition, so Options.Shards must not perturb it in any way — the
// fig5 golden digests depend on that.
func TestDumbbellIgnoresShards(t *testing.T) {
	run := func(shards int) RunResult {
		tb := New(Options{Senders: 2, Seed: 3, Shards: shards})
		for i := 0; i < 2; i++ {
			if _, err := tb.AddFlow(i, iperf.Spec{Bytes: gbit / 8, CCA: "cubic"}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := tb.Run(30 * sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if got, want := run(4), run(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("dumbbell result changed under Shards=4:\n got:  %+v\n want: %+v", got, want)
	}
}
