package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"greenenvy/internal/energy"
)

// paperPower adapts the calibrated energy model into a PowerFunc at MTU
// 9000, the paper's Figure 2 curve.
func paperPower() PowerFunc {
	m := energy.DefaultModel()
	return func(bps float64) float64 { return m.SenderPower(bps, 8940, "cubic") }
}

const c10g = 10e9

func TestFairAllocation(t *testing.T) {
	x := FairAllocation(c10g, 4)
	for _, xi := range x {
		if xi != 2.5e9 {
			t.Fatalf("fair allocation = %v", x)
		}
	}
}

func TestPaperCurveSatisfiesHypotheses(t *testing.T) {
	p := paperPower()
	if !IsStrictlyConcave(p, c10g, 500) {
		t.Fatal("calibrated curve not strictly concave on [0, 10G]")
	}
	if !HasDecreasingMarginal(p, c10g, 100) {
		t.Fatal("marginal power not decreasing")
	}
}

func TestTheorem1OnPaperCurve(t *testing.T) {
	p := paperPower()
	cases := [][]float64{
		{10e9, 0},
		{7.5e9, 2.5e9},
		{6e9, 4e9},
		{3e9, 3e9, 4e9},
		{1e9, 2e9, 3e9, 4e9},
	}
	for _, y := range cases {
		fair, yp, holds, err := CheckTheorem1(p, c10g, y)
		if err != nil {
			t.Fatalf("y=%v: %v", y, err)
		}
		if !holds {
			t.Fatalf("Theorem 1 violated for y=%v: fair=%v y=%v", y, fair, yp)
		}
	}
}

func TestTheorem1HeadlineNumbers(t *testing.T) {
	// Fair two-flow split vs full-speed-then-idle on 10 Gbit transfers:
	// 137 J vs 114.6 J, 16% (paper §4.1).
	p := paperPower()
	flows := []Flow{{Bytes: 1.25e9}, {Bytes: 1.25e9}} // 10 Gbit each
	fair, err := FairShare(flows, c10g)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := FullSpeedThenIdle(flows, c10g)
	if err != nil {
		t.Fatal(err)
	}
	ef, es := fair.Energy(p), serial.Energy(p)
	if math.Abs(ef-137) > 1.5 {
		t.Errorf("fair energy = %.2f J, want ~137", ef)
	}
	if math.Abs(es-114.6) > 1.5 {
		t.Errorf("serial energy = %.2f J, want ~114.6", es)
	}
	sav, err := SavingsOverFair(serial, c10g, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sav-0.163) > 0.01 {
		t.Errorf("savings = %.3f, want ~0.163", sav)
	}
}

func TestJensenComputation(t *testing.T) {
	p := paperPower()
	y := []float64{2e9, 8e9}
	pm, mp := ProveTheorem1ByJensen(p, y)
	if pm <= mp {
		t.Fatalf("Jensen inequality failed: p(mean)=%v, mean(p)=%v", pm, mp)
	}
}

// Property: Theorem 1 holds for random strictly concave curves and random
// allocations.
func TestTheorem1Property(t *testing.T) {
	f := func(a, b uint16, split uint16, nRaw uint8) bool {
		// p(x) = A·x^0.6 + B·x — strictly concave increasing for A>0.
		A := 1 + float64(a%1000)
		B := float64(b % 100)
		p := func(x float64) float64 { return A*math.Pow(x/1e9, 0.6) + B*x/1e9 }
		n := 2 + int(nRaw%6)
		// Build a random non-fair allocation summing to capacity.
		frac := 0.5 + float64(split)/65535*0.5 // [0.5, 1]
		if frac == 0.5 {
			frac = 0.6
		}
		y := make([]float64, n)
		y[0] = frac * c10g
		for i := 1; i < n; i++ {
			y[i] = (1 - frac) * c10g / float64(n-1)
		}
		_, _, holds, err := CheckTheorem1(p, c10g, y)
		return err == nil && holds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: for a CONVEX curve, the fair allocation is best, not worst —
// the theorem's hypothesis is necessary.
func TestConvexCurveReversesConclusion(t *testing.T) {
	p := func(x float64) float64 { return (x / 1e9) * (x / 1e9) }
	fair, yp, holds, err := CheckTheorem1(p, c10g, []float64{8e9, 2e9})
	if err != nil {
		t.Fatal(err)
	}
	if holds {
		t.Fatalf("convex curve should reverse the inequality: fair=%v y=%v", fair, yp)
	}
}

func TestCheckTheorem1Validation(t *testing.T) {
	p := paperPower()
	if _, _, _, err := CheckTheorem1(p, c10g, []float64{c10g}); err == nil {
		t.Error("single flow accepted")
	}
	if _, _, _, err := CheckTheorem1(p, c10g, []float64{5e9, 4e9}); err == nil {
		t.Error("non-capacity sum accepted")
	}
	if _, _, _, err := CheckTheorem1(p, c10g, []float64{5e9, 5e9}); err == nil {
		t.Error("fair allocation accepted as y")
	}
	if _, _, _, err := CheckTheorem1(p, c10g, []float64{-1e9, 11e9}); err == nil {
		t.Error("negative throughput accepted")
	}
}

func TestFairShareSchedule(t *testing.T) {
	flows := []Flow{{Bytes: 1.25e9}, {Bytes: 1.25e9}}
	s, err := FairShare(flows, c10g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Duration()-2.0) > 1e-9 {
		t.Fatalf("fair duration = %v, want 2", s.Duration())
	}
	fcts := s.FCTs()
	if math.Abs(fcts[0]-2) > 1e-9 || math.Abs(fcts[1]-2) > 1e-9 {
		t.Fatalf("FCTs = %v, want both 2", fcts)
	}
}

func TestFairShareUnequalSizesWorkConserving(t *testing.T) {
	// 5 Gbit and 15 Gbit: share until the small one finishes at 1 s, then
	// the big one takes the full link: 10 Gbit left → +1 s. Makespan 2 s.
	flows := []Flow{{Bytes: 0.625e9}, {Bytes: 1.875e9}}
	s, err := FairShare(flows, c10g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Duration()-2.0) > 1e-9 {
		t.Fatalf("duration = %v, want 2", s.Duration())
	}
	fcts := s.FCTs()
	if math.Abs(fcts[0]-1) > 1e-9 {
		t.Fatalf("small flow FCT = %v, want 1", fcts[0])
	}
}

func TestWeightedShareMatchesFairAtHalf(t *testing.T) {
	p := paperPower()
	flows := []Flow{{Bytes: 1.25e9}, {Bytes: 1.25e9}}
	fair, _ := FairShare(flows, c10g)
	w, err := WeightedShare(flows, c10g, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fair.Energy(p)-w.Energy(p)) > 1e-6 {
		t.Fatalf("weighted(0.5) energy %v != fair %v", w.Energy(p), fair.Energy(p))
	}
}

func TestWeightedShareExtremesMatchSerial(t *testing.T) {
	p := paperPower()
	flows := []Flow{{Bytes: 1.25e9}, {Bytes: 1.25e9}}
	serial, _ := FullSpeedThenIdle(flows, c10g)
	w, err := WeightedShare(flows, c10g, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(serial.Energy(p)-w.Energy(p)) > 1e-6 {
		t.Fatalf("weighted(1,0) energy %v != serial %v", w.Energy(p), serial.Energy(p))
	}
}

func TestWeightedShareMonotoneSavings(t *testing.T) {
	// Figure 1's shape: savings increase monotonically as the allocation
	// moves away from fair.
	p := paperPower()
	flows := []Flow{{Bytes: 1.25e9}, {Bytes: 1.25e9}}
	prev := -1.0
	for _, f := range []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		s, err := WeightedShare(flows, c10g, []float64{f, 1 - f})
		if err != nil {
			t.Fatal(err)
		}
		sav, err := SavingsOverFair(s, c10g, p)
		if err != nil {
			t.Fatal(err)
		}
		if sav < prev {
			t.Fatalf("savings not monotone at f=%v: %v < %v", f, sav, prev)
		}
		prev = sav
	}
	if math.Abs(prev-0.163) > 0.01 {
		t.Fatalf("max savings = %v, want ~0.163", prev)
	}
}

func TestWeightedShareValidation(t *testing.T) {
	flows := []Flow{{Bytes: 1e9}, {Bytes: 1e9}}
	if _, err := WeightedShare(flows, c10g, []float64{1}); err == nil {
		t.Error("weight count mismatch accepted")
	}
	if _, err := WeightedShare(flows, c10g, []float64{1, -1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := WeightedShare(nil, c10g, nil); err == nil {
		t.Error("empty flows accepted")
	}
	if _, err := FairShare(flows, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := FullSpeedThenIdle([]Flow{{Bytes: -1}}, c10g); err == nil {
		t.Error("negative size accepted")
	}
}

func TestFullSpeedThenIdleSRPTOrder(t *testing.T) {
	flows := []Flow{{Bytes: 2e9}, {Bytes: 0.5e9}, {Bytes: 1e9}}
	s, err := FullSpeedThenIdle(flows, c10g)
	if err != nil {
		t.Fatal(err)
	}
	fcts := s.FCTs()
	// Shortest first: flow 1 (0.5 GB) finishes first, then 2, then 0.
	if !(fcts[1] < fcts[2] && fcts[2] < fcts[0]) {
		t.Fatalf("FCTs = %v, want SRPT order", fcts)
	}
}

func TestDatacenterExtrapolation(t *testing.T) {
	d := PaperDatacenter()
	if d.YearlyEnergyUSD() != 1e9 {
		t.Fatalf("yearly = %v, want 1e9", d.YearlyEnergyUSD())
	}
	usd, err := d.YearlySavingsUSD(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if usd != 10_000_000 {
		t.Fatalf("1%% savings = $%v/yr, want $10M (paper §4.2)", usd)
	}
	if _, err := d.YearlySavingsUSD(2); err == nil {
		t.Error("out-of-range fraction accepted")
	}
}

func TestSchedulerSRPTBeatsPSOnBothAxes(t *testing.T) {
	// The future-work claim: for simultaneous equal flows, SRPT saves
	// energy and improves mean FCT simultaneously.
	p := paperPower()
	flows := []Flow{{Bytes: 1.25e9}, {Bytes: 1.25e9}}
	c, err := Compare(flows, c10g, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.SavingFrac-0.163) > 0.01 {
		t.Errorf("SRPT saving = %v, want ~0.163", c.SavingFrac)
	}
	if c.FCTSpeedup <= 1 {
		t.Errorf("SRPT mean-FCT speedup = %v, want > 1", c.FCTSpeedup)
	}
	if math.Abs(c.MakespanSecs-2) > 1e-9 {
		t.Errorf("makespan = %v, want 2", c.MakespanSecs)
	}
}

func TestSchedulerWithArrivals(t *testing.T) {
	p := paperPower()
	flows := []Flow{
		{Bytes: 1.25e9, Release: 0},
		{Bytes: 0.625e9, Release: 0.5},
		{Bytes: 0.25e9, Release: 0.6},
	}
	ps, err := Simulate(flows, c10g, ProcessorSharing)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := Simulate(flows, c10g, SRPT)
	if err != nil {
		t.Fatal(err)
	}
	// Work conservation: equal makespans.
	if math.Abs(ps.Duration()-sr.Duration()) > 1e-9 {
		t.Fatalf("makespans differ: %v vs %v", ps.Duration(), sr.Duration())
	}
	if sr.Energy(p) >= ps.Energy(p) {
		t.Fatalf("SRPT energy %v >= PS %v", sr.Energy(p), ps.Energy(p))
	}
	if sr.MeanFCT() >= ps.MeanFCT() {
		t.Fatalf("SRPT mean FCT %v >= PS %v", sr.MeanFCT(), ps.MeanFCT())
	}
}

func TestSRPTMeanFCTOptimalOnMixedSizes(t *testing.T) {
	// Regression test: an early-finishing mouse's FCT must not be
	// overwritten by later phases. SRPT's mean FCT here is exactly
	// (0.05 + 0.15 + 0.25 + 1.25 + 3.25)/5 = 0.99 s.
	flows := []Flow{{Bytes: 2.5e9}, {Bytes: 1.25e9}, {Bytes: 125e6}, {Bytes: 125e6}, {Bytes: 62.5e6}}
	s, err := Simulate(flows, c10g, SRPT)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.MeanFCT(); math.Abs(got-0.99) > 1e-6 {
		t.Fatalf("SRPT mean FCT = %v, want 0.99", got)
	}
	fcts := s.FCTs()
	if math.Abs(fcts[3]-0.25) > 1e-6 {
		t.Fatalf("second mouse FCT = %v, want 0.25", fcts[3])
	}
	// SRPT is mean-FCT optimal: processor sharing must not beat it.
	ps, err := Simulate(flows, c10g, ProcessorSharing)
	if err != nil {
		t.Fatal(err)
	}
	if ps.MeanFCT() < s.MeanFCT() {
		t.Fatalf("PS mean FCT %v beat SRPT %v", ps.MeanFCT(), s.MeanFCT())
	}
}

func TestSimulateIdleGap(t *testing.T) {
	flows := []Flow{{Bytes: 1.25e9, Release: 0}, {Bytes: 1.25e9, Release: 5}}
	s, err := Simulate(flows, c10g, SRPT)
	if err != nil {
		t.Fatal(err)
	}
	// Flow 0 done at 1s; gap until 5s; flow 1 done at 6s.
	if math.Abs(s.Duration()-6) > 1e-9 {
		t.Fatalf("duration = %v, want 6", s.Duration())
	}
	fcts := s.FCTs()
	if math.Abs(fcts[1]-1) > 1e-9 {
		t.Fatalf("flow 1 FCT = %v, want 1 (release-relative)", fcts[1])
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(nil, c10g, SRPT); err == nil {
		t.Error("empty flows accepted")
	}
	if _, err := Simulate([]Flow{{Bytes: 1, Release: -1}}, c10g, SRPT); err == nil {
		t.Error("negative release accepted")
	}
	if _, err := Simulate([]Flow{{Bytes: 1}}, c10g, Policy(9)); err == nil {
		t.Error("unknown policy accepted")
	}
	if ProcessorSharing.String() == SRPT.String() {
		t.Error("policy names collide")
	}
}

// Property: energy of any weighted schedule never exceeds fair and never
// beats serial (for two equal flows on the concave paper curve).
func TestScheduleEnergyBoundsProperty(t *testing.T) {
	p := paperPower()
	flows := []Flow{{Bytes: 1.25e9}, {Bytes: 1.25e9}}
	fair, _ := FairShare(flows, c10g)
	serial, _ := FullSpeedThenIdle(flows, c10g)
	ef, es := fair.Energy(p), serial.Energy(p)
	f := func(raw uint16) bool {
		w := 0.5 + 0.5*float64(raw)/65535
		s, err := WeightedShare(flows, c10g, []float64{w, 1 - w})
		if err != nil {
			return false
		}
		e := s.Energy(p)
		return e <= ef+1e-6 && e >= es-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// plainEnergy is Energy's reference: p evaluated at every rate of every
// phase.
func plainEnergy(s Schedule, p PowerFunc) float64 {
	total := 0.0
	for _, ph := range s.Phases {
		dt := ph.End - ph.Start
		for _, r := range ph.Rates {
			total += p(r) * dt
		}
	}
	return total
}

// TestScheduleEnergyMatchesPlainSum: reusing p(r) across equal consecutive
// rates must not move a single bit of any schedule's energy.
func TestScheduleEnergyMatchesPlainSum(t *testing.T) {
	p := paperPower()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		flows := make([]Flow, n)
		arrivals := make([]Flow, n)
		weights := make([]float64, n)
		for i := range flows {
			flows[i] = Flow{Bytes: 1e6 + rng.Float64()*2e9}
			if trial%4 == 0 {
				flows[i].Bytes = 1.25e9 // equal sizes: ties and shared phases
			}
			arrivals[i] = Flow{Bytes: flows[i].Bytes, Release: rng.Float64() * 2}
			weights[i] = float64(rng.Intn(4)) // zeros exercise the background class
		}
		for _, c := range []struct {
			name  string
			build func() (Schedule, error)
		}{
			{"fair", func() (Schedule, error) { return FairShare(flows, c10g) }},
			{"serial", func() (Schedule, error) { return FullSpeedThenIdle(flows, c10g) }},
			{"weighted", func() (Schedule, error) { return WeightedShare(flows, c10g, weights) }},
			{"srpt", func() (Schedule, error) { return Simulate(arrivals, c10g, SRPT) }},
		} {
			s, err := c.build()
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, c.name, err)
			}
			if got, want := s.Energy(p), plainEnergy(s, p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d %s: Energy = %v (%#x), plain sum = %v (%#x)",
					trial, c.name, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestFullSpeedThenIdleEnergyEvaluationsLinear: the serial schedule's n
// phases of n rates, all but one idle, must not cost n² power evaluations
// (fattree-incast's analytic column runs it at n=256).
func TestFullSpeedThenIdleEnergyEvaluationsLinear(t *testing.T) {
	const n = 256
	flows := make([]Flow, n)
	for i := range flows {
		flows[i] = Flow{Bytes: 1e6}
	}
	s, err := FullSpeedThenIdle(flows, c10g)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	p := paperPower()
	s.Energy(func(bps float64) float64 { calls++; return p(bps) })
	t.Logf("n=%d: %d power evaluations", n, calls)
	if calls > 3*n {
		t.Fatalf("Energy evaluated p %d times for n=%d, want at most %d", calls, n, 3*n)
	}
}
