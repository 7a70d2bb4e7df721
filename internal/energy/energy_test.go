package energy

import (
	"math"
	"testing"
	"testing/quick"

	"greenenvy/internal/sim"
)

func TestServerCurveAnchors(t *testing.T) {
	// The calibrated model must hit the paper's Figure 2 anchor points:
	// 21.49 W idle, 34.23 W at 5 Gb/s, 35.82 W at 10 Gb/s (CUBIC sender,
	// MTU 9000).
	m := DefaultModel()
	const payload = 9000 - 60
	cases := []struct {
		gbps float64
		want float64
	}{
		{0, 21.49},
		{5, 34.23},
		{10, 35.82},
	}
	for _, tc := range cases {
		got := m.SenderPower(tc.gbps*1e9, payload, "cubic")
		if math.Abs(got-tc.want) > 0.15 {
			t.Errorf("SenderPower(%v Gb/s) = %.3f W, want %.2f ± 0.15", tc.gbps, got, tc.want)
		}
	}
}

func TestCurveStrictlyIncreasing(t *testing.T) {
	c := ServerCurve()
	prev := c.PowerAt(0)
	for u := 0.01; u <= 1.0; u += 0.01 {
		p := c.PowerAt(u)
		if p <= prev {
			t.Fatalf("power not strictly increasing at u=%v: %v <= %v", u, p, prev)
		}
		prev = p
	}
}

func TestCurveStrictlyConcave(t *testing.T) {
	if !ServerCurve().IsStrictlyConcaveOn(1.0, 1000) {
		t.Fatal("server curve is not strictly concave on [0,1]")
	}
}

func TestCurveMarginalDecreasing(t *testing.T) {
	c := ServerCurve()
	prev := c.MarginalAt(0)
	for u := 0.001; u <= 1.0; u += 0.001 {
		m := c.MarginalAt(u)
		if m >= prev {
			t.Fatalf("marginal power not strictly decreasing at u=%v", u)
		}
		prev = m
	}
}

func TestCurveClampsUtilization(t *testing.T) {
	c := ServerCurve()
	if c.PowerAt(-0.5) != c.PowerAt(0) {
		t.Fatal("negative utilization not clamped")
	}
	if c.PowerAt(1.5) != c.PowerAt(1) {
		t.Fatal("over-unity utilization not clamped")
	}
}

func TestMarginalFirst5GbpsVsNext5Gbps(t *testing.T) {
	// §4.1: "Sending with 5 additional Gb/s increases power usage by 60%
	// (12.7 Watts) when the server is idling, but only increases it by 5%
	// (1.6 Watts) when the server is already sending at 5 Gb/s."
	m := DefaultModel()
	const payload = 8940
	p0 := m.SenderPower(0, payload, "cubic")
	p5 := m.SenderPower(5e9, payload, "cubic")
	p10 := m.SenderPower(10e9, payload, "cubic")
	first := p5 - p0
	second := p10 - p5
	if math.Abs(first-12.74) > 0.3 {
		t.Errorf("first 5 Gb/s costs %.2f W, want ~12.74", first)
	}
	if math.Abs(second-1.59) > 0.3 {
		t.Errorf("second 5 Gb/s costs %.2f W, want ~1.59", second)
	}
	if !(first > 5*second) {
		t.Errorf("marginal power should collapse: first=%v second=%v", first, second)
	}
}

func TestSenderPowerConcaveInThroughput(t *testing.T) {
	// The composed p(x) = P(u_net(x)) must itself be strictly concave in
	// throughput — the hypothesis of Theorem 1.
	m := DefaultModel()
	const payload = 8940
	for i := 0; i < 100; i++ {
		a := float64(i) * 1e8
		b := a + 1e8
		mid := (a + b) / 2
		pm := m.SenderPower(mid, payload, "cubic")
		chord := (m.SenderPower(a, payload, "cubic") + m.SenderPower(b, payload, "cubic")) / 2
		if pm <= chord {
			t.Fatalf("p(x) not strictly concave at %v bps", mid)
		}
	}
}

func TestTangentPowerBelowSmoothPower(t *testing.T) {
	// Figure 2's visual argument: duty-cycling between idle and line rate
	// (the tangent line) uses strictly less power than sending smoothly,
	// for any average throughput strictly between 0 and line rate.
	m := DefaultModel()
	const payload = 8940
	for _, gbps := range []float64{1, 2.5, 5, 7.5, 9} {
		smooth := m.SenderPower(gbps*1e9, payload, "cubic")
		tangent := m.TangentPower(gbps*1e9, 10e9, payload, "cubic")
		if tangent >= smooth {
			t.Errorf("tangent %.2f W >= smooth %.2f W at %v Gb/s", tangent, smooth, gbps)
		}
	}
	// At the endpoints they coincide.
	if math.Abs(m.TangentPower(0, 10e9, payload, "cubic")-m.SenderPower(0, payload, "cubic")) > 1e-9 {
		t.Error("tangent != smooth at 0")
	}
	if math.Abs(m.TangentPower(10e9, 10e9, payload, "cubic")-m.SenderPower(10e9, payload, "cubic")) > 1e-9 {
		t.Error("tangent != smooth at line rate")
	}
}

func TestFigure1HeadlineSavings(t *testing.T) {
	// The analytic version of the headline result: two flows, 10 Gbit
	// each, 10 Gb/s bottleneck. Fair (both at 5 Gb/s for 2 s) vs full
	// speed then idle (each: 1 s at 10 Gb/s + 1 s idle). Paper: 16% less
	// energy (137 J vs 114.63 J).
	m := DefaultModel()
	const payload = 8940
	p5 := m.SenderPower(5e9, payload, "cubic")
	p10 := m.SenderPower(10e9, payload, "cubic")
	pIdle := m.SenderPower(0, payload, "cubic")
	fair := 2 * p5 * 2.0
	serial := 2 * (p10*1.0 + pIdle*1.0)
	savings := (fair - serial) / fair * 100
	if math.Abs(fair-137) > 1.5 {
		t.Errorf("fair energy = %.1f J, want ~137", fair)
	}
	if math.Abs(serial-114.6) > 1.5 {
		t.Errorf("serial energy = %.1f J, want ~114.6", serial)
	}
	if math.Abs(savings-16.3) > 1.0 {
		t.Errorf("savings = %.1f%%, want ~16%%", savings)
	}
}

func TestLoadedSavingsShrink(t *testing.T) {
	// §4.2: the same strategy saves ~1% at 25% load and ~0.17% at 75%.
	m := DefaultModel()
	const payload = 8940
	for _, tc := range []struct {
		load        float64
		wantPercent float64
		tol         float64
	}{
		{0.25, 1.0, 0.9},
		{0.75, 0.17, 0.25},
	} {
		p5 := m.SenderPowerLoaded(5e9, payload, "cubic", tc.load)
		p10 := m.SenderPowerLoaded(10e9, payload, "cubic", tc.load)
		pIdle := m.SenderPowerLoaded(0, payload, "cubic", tc.load)
		fair := 2 * p5 * 2.0
		serial := 2 * (p10 + pIdle)
		savings := (fair - serial) / fair * 100
		if savings <= 0 {
			t.Errorf("load %v: savings %.3f%% not positive", tc.load, savings)
		}
		if math.Abs(savings-tc.wantPercent) > tc.tol {
			t.Errorf("load %v: savings = %.3f%%, want ~%v%%", tc.load, savings, tc.wantPercent)
		}
	}
}

func TestMTURaisesUtilization(t *testing.T) {
	m := DefaultModel()
	u1500 := m.SenderUtilization(5e9, 1500-60, "cubic")
	u9000 := m.SenderUtilization(5e9, 9000-60, "cubic")
	if u1500 <= u9000 {
		t.Fatalf("MTU 1500 utilization %v should exceed MTU 9000 %v", u1500, u9000)
	}
	ratio := u1500 / u9000
	if ratio < 4 || ratio > 8 {
		t.Fatalf("utilization ratio %v out of expected band (≈ packet-rate ratio ~6.2)", ratio)
	}
}

func TestCCACostOrdering(t *testing.T) {
	c := DefaultCostModel()
	if c.CCACost("bbr2") <= c.CCACost("bbr") {
		t.Fatal("bbr2 (alpha) must cost more per ACK than bbr")
	}
	if c.CCACost("baseline") != 0 {
		t.Fatal("baseline does no cwnd computation")
	}
	if c.CCACost("unknown-algorithm") != c.CCACost("reno") {
		t.Fatal("unknown CCA should fall back to reno cost")
	}
}

func TestCostModelValidate(t *testing.T) {
	c := DefaultCostModel()
	if err := c.Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
	bad := c
	bad.Cores = 0
	if bad.Validate() == nil {
		t.Error("zero cores accepted")
	}
	bad = c
	bad.TxPacket = -1
	if bad.Validate() == nil {
		t.Error("negative cost accepted")
	}
	bad = c
	bad.TxPathCost = -1
	if bad.Validate() == nil {
		t.Error("negative TxPathCost accepted")
	}
}

func TestMeterIdleEnergy(t *testing.T) {
	e := sim.NewEngine()
	m := NewMeter(e, ServerCurve(), DefaultCostModel())
	e.RunUntil(10 * sim.Second)
	m.Sync()
	want := 21.49 * 10
	if math.Abs(m.Joules()-want) > 0.01 {
		t.Fatalf("idle energy = %v J, want %v", m.Joules(), want)
	}
}

func TestMeterWorkRaisesEnergy(t *testing.T) {
	e := sim.NewEngine()
	m := NewMeter(e, ServerCurve(), DefaultCostModel())
	// 0.32 core-seconds over 1 s on 32 cores = 1% utilization.
	m.AddWork(0.32)
	e.RunUntil(sim.Second)
	m.Sync()
	want := ServerCurve().PowerAt(0.01)
	if math.Abs(m.Joules()-want) > 1e-9 {
		t.Fatalf("energy = %v, want %v", m.Joules(), want)
	}
	if m.TotalWork() != 0.32 {
		t.Fatalf("TotalWork = %v", m.TotalWork())
	}
}

func TestMeterBaseLoad(t *testing.T) {
	e := sim.NewEngine()
	m := NewMeter(e, ServerCurve(), DefaultCostModel())
	m.SetBaseLoad(0.75)
	if m.BaseLoad() != 0.75 {
		t.Fatalf("BaseLoad = %v", m.BaseLoad())
	}
	e.RunUntil(sim.Second)
	m.Sync()
	want := ServerCurve().PowerAt(0.75)
	if math.Abs(m.Joules()-want) > 1e-9 {
		t.Fatalf("loaded energy = %v, want %v", m.Joules(), want)
	}
	// ~108 W at 75% load matches Fig 4's top curve.
	if want < 100 || want > 120 {
		t.Fatalf("75%% load power = %v W, want ~108", want)
	}
}

func TestMeterBaseLoadValidation(t *testing.T) {
	e := sim.NewEngine()
	m := NewMeter(e, ServerCurve(), DefaultCostModel())
	for _, v := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetBaseLoad(%v) did not panic", v)
				}
			}()
			m.SetBaseLoad(v)
		}()
	}
}

func TestMeterNegativeWorkPanics(t *testing.T) {
	e := sim.NewEngine()
	m := NewMeter(e, ServerCurve(), DefaultCostModel())
	defer func() {
		if recover() == nil {
			t.Error("negative work did not panic")
		}
	}()
	m.AddWork(-1)
}

func TestMeterSyncIdempotentAtSameTime(t *testing.T) {
	e := sim.NewEngine()
	m := NewMeter(e, ServerCurve(), DefaultCostModel())
	e.RunUntil(sim.Second)
	m.Sync()
	j := m.Joules()
	m.Sync()
	if m.Joules() != j {
		t.Fatal("double Sync at same time changed energy")
	}
}

func TestMeterFrequentVsSparseSyncSteadyState(t *testing.T) {
	// Under steady work, sync frequency must not change the integral.
	run := func(syncEvery sim.Duration) float64 {
		e := sim.NewEngine()
		m := NewMeter(e, ServerCurve(), DefaultCostModel())
		for t := sim.Duration(0); t < sim.Second; t += syncEvery {
			e.RunUntil(t + syncEvery)
			m.AddWork(0.32 * syncEvery.Seconds()) // steady 1% utilization
			m.Sync()
		}
		return m.Joules()
	}
	fine := run(sim.Millisecond)
	coarse := run(100 * sim.Millisecond)
	if math.Abs(fine-coarse) > 1e-6 {
		t.Fatalf("sync granularity changed steady-state energy: %v vs %v", fine, coarse)
	}
}

// TestAccountZeroValueDiscards: an endpoint that reports to no meter holds
// the zero Account, whose every method is a no-op.
func TestAccountZeroValueDiscards(t *testing.T) {
	var a Account
	a.SentData(false, 0)
	a.SentAck()
	a.ReceivedData()
	a.ReceivedAck()
}

func TestAccountAttributesCosts(t *testing.T) {
	e := sim.NewEngine()
	m := NewMeter(e, ServerCurve(), DefaultCostModel())
	a := NewAccount(m, "cubic")
	c := m.Costs
	a.SentData(false, 0)
	want := c.TxPacket
	a.SentData(true, 0)
	want += c.TxPacket + c.Retransmit
	a.SentAck()
	want += c.TxAck
	a.ReceivedData()
	want += c.RxPacket
	a.ReceivedAck()
	want += c.RxAck + c.CCACost("cubic")
	if math.Abs(m.TotalWork()-want) > 1e-15 {
		t.Fatalf("TotalWork = %v, want %v", m.TotalWork(), want)
	}
}

func TestWindowPenaltyScalesWithOutstanding(t *testing.T) {
	e := sim.NewEngine()
	m := NewMeter(e, ServerCurve(), DefaultCostModel())
	a := NewAccount(m, "baseline")
	a.SentData(false, 0)
	base := m.TotalWork()
	a.SentData(false, 25<<20) // the baseline's 25 MB window
	withWindow := m.TotalWork() - base
	want := m.Costs.TxPacket + 25*m.Costs.TxWindowMB
	if math.Abs(withWindow-want) > 1e-15 {
		t.Fatalf("windowed cost = %v, want %v", withWindow, want)
	}
	if withWindow <= base {
		t.Fatal("large window must cost more per packet")
	}
}

// Property: energy is monotone in utilization for arbitrary curves with
// nonnegative parameters.
func TestPowerMonotoneProperty(t *testing.T) {
	f := func(idle, wake, lin uint16, a, b uint16) bool {
		c := PowerCurve{
			Idle:      float64(idle%200) + 1,
			Wake:      float64(wake % 50),
			WakeScale: 0.003,
			Linear:    float64(lin % 200),
		}
		ua := float64(a) / 65535
		ub := float64(b) / 65535
		if ua > ub {
			ua, ub = ub, ua
		}
		return c.PowerAt(ua) <= c.PowerAt(ub)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPowerAt(b *testing.B) {
	c := ServerCurve()
	for i := 0; i < b.N; i++ {
		_ = c.PowerAt(float64(i%100) / 100)
	}
}
