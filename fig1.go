package greenenvy

import (
	"fmt"
	"strings"

	"greenenvy/internal/core"
	"greenenvy/internal/iperf"
	"greenenvy/internal/registry"
	"greenenvy/internal/testbed"
)

func init() {
	Register(Experiment{
		Name: "fig1", Aliases: []string{"1"}, Order: 10, Section: "§4.1",
		Description: "energy savings vs bandwidth fraction for two competing flows",
		CacheID:     "fig1/",
		Run:         func(o Options) (Result, error) { return RunFig1(o) },
	})
}

// Fig1Point is one x-position of the paper's Figure 1: the bandwidth
// fraction allocated to flow 1 and the measured total sender energy.
type Fig1Point struct {
	// Fraction of the bottleneck allocated to flow 1 while both flows
	// are active (0.5 = TCP fair share, 1.0 = full speed then idle).
	Fraction float64
	// MeanEnergyJ / StdEnergyJ summarize total sender energy over the
	// repetitions.
	MeanEnergyJ float64
	StdEnergyJ  float64
	// SavingsPct is energy saving over the fair point, in percent.
	SavingsPct float64
	// AnalyticSavingsPct is the closed-form prediction from the power
	// curve (the WeightedShare schedule energy).
	AnalyticSavingsPct float64
	// JainIndex is Jain's fairness index of the (f, 1−f) bandwidth
	// allocation while both flows are active: 1 at the fair split, 0.5
	// at full monopoly.
	JainIndex float64
}

// Fig1Result reproduces Figure 1: "Increasing throughput imbalance for two
// competing TCP flows can reduce energy usage."
type Fig1Result struct {
	Points        []Fig1Point
	FairEnergyJ   float64
	MaxSavingsPct float64
	// FlowGbit is the per-flow transfer size used (10 Gbit × Scale).
	FlowGbit float64
}

// RunFig1 sweeps the bandwidth fraction given to flow 1 (via weighted fair
// queueing at the bottleneck, work-conserving exactly as §1 describes) and
// measures total sender energy from experiment start until both flows
// complete. The paper's result: the fair split is worst; the serial
// schedule saves ≈16 %.
func RunFig1(o Options) (Fig1Result, error) {
	o, err := o.WithDefaults()
	if err != nil {
		return Fig1Result{}, err
	}
	bytes := uint64(10 * registry.PaperGbit * o.Scale)
	if bytes == 0 {
		return Fig1Result{}, fmt.Errorf("greenenvy: scale too small")
	}
	fractions := []float64{0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 1.0}
	res := Fig1Result{FlowGbit: float64(bytes) * 8 / 1e9}

	// Analytic predictions from the calibrated curve.
	p := PaperPowerFunc()
	flows := []core.Flow{{Bytes: float64(bytes)}, {Bytes: float64(bytes)}}
	analytic := make(map[float64]float64)
	for _, f := range fractions {
		s, err := core.WeightedShare(flows, 10e9, []float64{f, 1 - f})
		if err != nil {
			return Fig1Result{}, err
		}
		sav, err := core.SavingsOverFair(s, 10e9, p)
		if err != nil {
			return Fig1Result{}, err
		}
		analytic[f] = sav * 100
	}

	deadline := registry.DeadlineFor(2 * bytes)
	cells := make([]registry.Cell[testbed.RunResult], len(fractions))
	for i, f := range fractions {
		id := fmt.Sprintf("fig1/frac=%.2f/bytes=%d", f, bytes)
		cells[i] = registry.TestbedCell(id, deadline, func(seed uint64) (*testbed.Testbed, error) {
			tb := testbed.New(testbed.Options{Senders: 2, UseDRR: f < 1.0, Seed: seed})
			return tb, addFlowPair(tb, 1, bytes, f)
		})
	}
	runs, err := registry.Run(o, cells)
	if err != nil {
		return Fig1Result{}, err
	}
	for i, f := range fractions {
		jain := 1 / (2 * (f*f + (1-f)*(1-f)))
		energy := registry.Aggregate(runs[i], registry.SenderJoules)[0]
		res.Points = append(res.Points, Fig1Point{
			Fraction:           f,
			MeanEnergyJ:        energy.Mean,
			StdEnergyJ:         energy.Std,
			AnalyticSavingsPct: analytic[f],
			JainIndex:          jain,
		})
		o.Logf("fig1: f=%.2f energy=%.1f±%.1f J", f, energy.Mean, energy.Std)
	}

	res.FairEnergyJ = res.Points[0].MeanEnergyJ
	for i := range res.Points {
		res.Points[i].SavingsPct = (res.FairEnergyJ - res.Points[i].MeanEnergyJ) / res.FairEnergyJ * 100
		if res.Points[i].SavingsPct > res.MaxSavingsPct {
			res.MaxSavingsPct = res.Points[i].SavingsPct
		}
	}
	return res, nil
}

// addFlowPair adds two cubic flows of bytes each, from sender 0 and from
// sender host2, weighted f and 1−f at the DRR bottleneck. f = 1 is the
// paper's "full speed, then idle": flow 2 starts when flow 1 completes.
func addFlowPair(tb *testbed.Testbed, host2 int, bytes uint64, f float64) error {
	c1, err := tb.AddFlow(0, iperf.Spec{Bytes: bytes, CCA: "cubic"})
	if err != nil {
		return err
	}
	c2, err := tb.AddFlow(host2, iperf.Spec{Bytes: bytes, CCA: "cubic"})
	if err != nil {
		return err
	}
	if f == 1 {
		c2.StartAfter(c1)
		return nil
	}
	if err := tb.SetWeight(c1.Report().Flow, f); err != nil {
		return err
	}
	return tb.SetWeight(c2.Report().Flow, 1-f)
}

// Table renders the Figure 1 rows.
func (r Fig1Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 — energy savings vs bandwidth fraction to flow 1 (%.1f Gbit/flow)\n", r.FlowGbit)
	fmt.Fprintf(&b, "%-10s %14s %12s %14s %8s\n", "fraction", "energy (J)", "savings %", "analytic %", "jain")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-10.2f %8.1f ±%4.1f %12.2f %14.2f %8.3f\n",
			p.Fraction, p.MeanEnergyJ, p.StdEnergyJ, p.SavingsPct, p.AnalyticSavingsPct, p.JainIndex)
	}
	fmt.Fprintf(&b, "max savings: %.1f%%  (paper: ~16%%)\n", r.MaxSavingsPct)
	return b.String()
}
