package testbed

import (
	"math"
	"testing"

	"greenenvy/internal/energy"
	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
)

// arithStream is a deterministic FlowStream of n identical flows: flow i
// arrives at i*gap carrying payload bytes, round-robining over senders.
func arithStream(n int, gap sim.Duration, payload uint64, senders int) FlowStream {
	i := 0
	return FlowStreamFunc(func() (FlowArrival, bool) {
		if i >= n {
			return FlowArrival{}, false
		}
		f := FlowArrival{At: sim.Time(i) * gap, Bytes: payload, Src: i % senders}
		i++
		return f, true
	})
}

// TestRunStreamChurnReusesPool replays 10^4 sequential flows through a
// two-sender dumbbell and checks the pool actually recycles: a handful of
// clients serve the whole run, with reuse accounting balancing the flow
// count exactly.
func TestRunStreamChurnReusesPool(t *testing.T) {
	const flows = 10_000
	const payload = 20_000
	tb := New(Options{Senders: 2, Seed: 11})
	res, err := tb.RunStream(arithStream(flows, 400*sim.Microsecond, payload, 2), "cubic", FairAdmission{}, 30*sim.Second)
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	if res.Flows != flows {
		t.Fatalf("completed %d flows, want %d", res.Flows, flows)
	}
	if res.Bytes != flows*payload {
		t.Fatalf("Bytes = %d, want %d", res.Bytes, flows*payload)
	}
	// Every launch is either a pool hit or a fresh build.
	if res.PoolReuses+uint64(res.PoolSize) != flows {
		t.Fatalf("PoolReuses %d + PoolSize %d != flows %d", res.PoolReuses, res.PoolSize, flows)
	}
	if res.PoolSize > 8 {
		t.Fatalf("PoolSize = %d: churn built far more clients than peak concurrency", res.PoolSize)
	}
	if res.PoolReuses < flows-100 {
		t.Fatalf("PoolReuses = %d: pool barely used", res.PoolReuses)
	}
	if !(res.MeanFCT > 0) || !(res.P99FCT > 0) {
		t.Fatalf("degenerate FCT aggregates: mean %v p99 %v", res.MeanFCT, res.P99FCT)
	}
	if res.MaxFCT < res.MeanFCT {
		t.Fatalf("MaxFCT %v < MeanFCT %v", res.MaxFCT, res.MeanFCT)
	}
	if res.TotalSenderJ <= 0 || res.Duration <= 0 {
		t.Fatalf("energy bracket empty: %v J over %v", res.TotalSenderJ, res.Duration)
	}
}

// TestRunStreamPooledMatchesUnpooled is the pooling determinism contract:
// recycling clients through Reset must leave every measured field of the
// result byte-identical to building a fresh client per flow.
func TestRunStreamPooledMatchesUnpooled(t *testing.T) {
	run := func(noPool bool) StreamResult {
		t.Helper()
		tb := New(Options{Senders: 2, Seed: 23})
		tb.noPool = noPool
		res, err := tb.RunStream(arithStream(300, 300*sim.Microsecond, 15_000, 2), "reno", FairAdmission{}, 5*sim.Second)
		if err != nil {
			t.Fatalf("RunStream(noPool=%v): %v", noPool, err)
		}
		return res
	}
	pooled := run(false)
	bare := run(true)
	if pooled.PoolReuses == 0 {
		t.Fatalf("pooled run recycled nothing")
	}
	if bare.PoolReuses != 0 || bare.PoolSize != 300 {
		t.Fatalf("noPool run used the pool: %d reuses, %d built", bare.PoolReuses, bare.PoolSize)
	}
	// Pool telemetry is the one legitimate difference; everything else —
	// energy draws, FCT aggregates, event counts — must match exactly.
	pooled.PoolSize, pooled.PoolReuses, pooled.PoolDiscards = 0, 0, 0
	bare.PoolSize, bare.PoolReuses, bare.PoolDiscards = 0, 0, 0
	if pooled != bare {
		t.Fatalf("pooled and unpooled runs diverge:\npooled: %+v\nbare:   %+v", pooled, bare)
	}
}

// TestRunStreamEnvyAdmission checks the online envy policy end to end:
// serialization defers arrivals, caps concurrency at one, spends less
// sender energy per gigabyte than fair sharing (Theorem 1 run online), and
// pays for it in tail FCT.
func TestRunStreamEnvyAdmission(t *testing.T) {
	run := func(adm Admission) StreamResult {
		t.Helper()
		tb := New(Options{Senders: 4, Seed: 5, MeasureNoise: 1e-12})
		i := 0
		burst := FlowStreamFunc(func() (FlowArrival, bool) {
			if i >= 200 {
				return FlowArrival{}, false
			}
			// Bursts of four simultaneous arrivals, one per sender, at
			// 0.8 offered load (4 MB per 4 ms against the 10 Gb/s
			// bottleneck) so the fair baseline stays stable.
			f := FlowArrival{At: sim.Time(i/4) * 4 * sim.Millisecond, Bytes: 1_000_000, Src: i % 4}
			i++
			return f, true
		})
		res, err := tb.RunStream(burst, "cubic", adm, 120*sim.Second)
		if err != nil {
			t.Fatalf("RunStream(%s): %v", adm.Name(), err)
		}
		return res
	}
	fair := run(FairAdmission{})
	envy := run(EnvyAdmission{MaxActive: 1})

	if fair.MaxActive < 2 {
		t.Fatalf("fair run never overlapped flows (MaxActive=%d); burst workload broken", fair.MaxActive)
	}
	if envy.MaxActive != 1 {
		t.Fatalf("envy MaxActive = %d, want 1", envy.MaxActive)
	}
	if envy.Deferred == 0 || envy.MaxQueue == 0 {
		t.Fatalf("envy run deferred nothing (deferred=%d maxQueue=%d)", envy.Deferred, envy.MaxQueue)
	}
	if fair.Deferred != 0 {
		t.Fatalf("fair run deferred %d flows", fair.Deferred)
	}
	if envy.Bytes != fair.Bytes || envy.Flows != fair.Flows {
		t.Fatalf("schedules moved different work: %+v vs %+v", envy, fair)
	}
	if envy.EnergyPerGB() >= fair.EnergyPerGB() {
		t.Errorf("envy energy/GB %.3f >= fair %.3f: serialization should save energy on a concave curve",
			envy.EnergyPerGB(), fair.EnergyPerGB())
	}
	// The FCT side of the trade is reported, not sign-asserted: with
	// equal-size flows on one shared bottleneck, serialization ties the
	// tail and improves the mean, so the direction is workload-dependent.
	// The aggregates just have to be real measurements.
	if !(envy.P99FCT > 0) || !(fair.P99FCT > 0) || !(envy.MeanFCT > 0) {
		t.Errorf("degenerate FCT aggregates: envy p99 %v mean %v, fair p99 %v", envy.P99FCT, envy.MeanFCT, fair.P99FCT)
	}
	if envy.MaxFCT < envy.MeanFCT || fair.MaxFCT < fair.MeanFCT {
		t.Errorf("max FCT below mean: envy %+v fair %+v", envy, fair)
	}
}

// TestNewEnvyAdmissionWidth: a strictly concave host power curve admits
// exactly one flow at a time — the derivation must land on the paper's
// full-serialization schedule without it being hardcoded.
func TestNewEnvyAdmissionWidth(t *testing.T) {
	adm := NewEnvyAdmission(energy.DefaultModel(), 10e9, 1448, "cubic")
	if adm.MaxActive != 1 {
		t.Fatalf("derived admission width %d, want 1 for a strictly concave curve", adm.MaxActive)
	}
	if adm.Name() != "envy" || (FairAdmission{}).Name() != "fair" {
		t.Fatalf("policy names wrong: %q / %q", adm.Name(), FairAdmission{}.Name())
	}
	if !(FairAdmission{}).Admit(1 << 20) {
		t.Fatal("fair admission rejected a flow")
	}
}

// TestRunStreamFatTree drives the streaming path over a k=4 fat-tree with
// lazily-created meters, pre-touching the hosts so the energy bracket
// covers the full window.
func TestRunStreamFatTree(t *testing.T) {
	tb := NewFatTree(Options{Seed: 3}, netsim.DefaultFatTree(4))
	hosts := tb.Fat.NumHosts()
	tb.TouchHost(0, false)
	for h := 1; h < hosts; h++ {
		tb.TouchHost(netsim.NodeID(h), true)
	}
	const flows = 200
	i := 0
	st := FlowStreamFunc(func() (FlowArrival, bool) {
		if i >= flows {
			return FlowArrival{}, false
		}
		f := FlowArrival{At: sim.Time(i) * 500 * sim.Microsecond, Bytes: 50_000, Src: 1 + i%(hosts-1), Dst: 0}
		i++
		return f, true
	})
	res, err := tb.RunStream(st, "dctcp", FairAdmission{}, 10*sim.Second)
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	if res.Flows != flows {
		t.Fatalf("completed %d flows, want %d", res.Flows, flows)
	}
	if res.TotalSenderJ <= 0 || res.ReceiverEnergyJ <= 0 {
		t.Fatalf("energy bracket empty: senders %v J, receiver %v J", res.TotalSenderJ, res.ReceiverEnergyJ)
	}
	if res.PoolReuses == 0 {
		t.Fatalf("fat-tree churn never reused a client")
	}
}

// TestRunStreamFatTreeUntouchedHosts: a fat-tree stream whose hosts were
// never touched registers each one's meter at its first flow, mid-run, and
// brackets it from there. The run is the touched run's, packet for packet
// and noise draw for noise draw; only the idle time before each sender's
// first flow leaves the senders' total (senders 2 and 3 start 0.5 and
// 1 ms in).
func TestRunStreamFatTreeUntouchedHosts(t *testing.T) {
	run := func(touch bool) StreamResult {
		t.Helper()
		tb := NewFatTree(Options{Seed: 3}, netsim.DefaultFatTree(4))
		if touch {
			for h := 0; h <= 3; h++ {
				tb.TouchHost(netsim.NodeID(h), h > 0)
			}
		}
		i := 0
		st := FlowStreamFunc(func() (FlowArrival, bool) {
			if i >= 6 {
				return FlowArrival{}, false
			}
			f := FlowArrival{At: sim.Time(i) * 500 * sim.Microsecond, Bytes: 50_000, Src: 1 + i%3, Dst: 0}
			i++
			return f, true
		})
		res, err := tb.RunStream(st, "cubic", FairAdmission{}, 10*sim.Second)
		if err != nil {
			t.Fatalf("RunStream(touch=%v): %v", touch, err)
		}
		if len(tb.Meters) != 4 || len(tb.senderIdx) != 3 {
			t.Fatalf("touch=%v: %d meters, %d senders; want 4 and 3", touch, len(tb.Meters), len(tb.senderIdx))
		}
		return res
	}
	touched, untouched := run(true), run(false)
	if untouched.Flows != 6 || untouched.Duration != touched.Duration || untouched.EventsFired != touched.EventsFired {
		t.Fatalf("untouched run diverged: %+v vs %+v", untouched, touched)
	}
	idle := energy.DefaultModel().Curve.PowerAt(0) * (1.5 * float64(sim.Millisecond) / float64(sim.Second))
	if gap := touched.TotalSenderJ - untouched.TotalSenderJ; math.Abs(gap-idle) > 0.05*idle {
		t.Fatalf("touched senders drew %v J more than untouched ones, want the %v J of idle time before their first flows",
			gap, idle)
	}
}

// TestRunStreamGuards covers the driver's refusal cases.
func TestRunStreamGuards(t *testing.T) {
	st := func() FlowStream { return arithStream(1, 0, 1000, 1) }

	tb := New(Options{Senders: 1, Seed: 1})
	if _, err := tb.RunStream(st(), "cubic", nil, sim.Second); err != nil {
		t.Fatalf("first RunStream: %v", err)
	}
	if _, err := tb.RunStream(st(), "cubic", nil, sim.Second); err == nil {
		t.Fatal("second RunStream on the same testbed succeeded")
	}

	// Out-of-range endpoint fails the run.
	bad := New(Options{Senders: 1, Seed: 1})
	oob := FlowStreamFunc(func() (FlowArrival, bool) { return FlowArrival{Bytes: 1000, Src: 5}, true })
	if _, err := bad.RunStream(oob, "cubic", nil, sim.Second); err == nil {
		t.Fatal("RunStream with an out-of-range sender succeeded")
	}

	// An empty stream finishes immediately with empty aggregates.
	empty := New(Options{Senders: 1, Seed: 1})
	res, err := empty.RunStream(FlowStreamFunc(func() (FlowArrival, bool) { return FlowArrival{}, false }), "cubic", nil, sim.Second)
	if err != nil {
		t.Fatalf("empty stream: %v", err)
	}
	if res.Flows != 0 || !math.IsNaN(res.MeanFCT) {
		t.Fatalf("empty stream produced %+v", res)
	}
}
