package greenenvy

import (
	"fmt"
	"math"
	"strings"

	"greenenvy/internal/energy"
	"greenenvy/internal/netsim"
	"greenenvy/internal/plot"
	"greenenvy/internal/registry"
	"greenenvy/internal/tcp"
	"greenenvy/internal/testbed"
	"greenenvy/internal/workload"
)

// WorkloadCrossoverPoint is one flow-size factor of the crossover sweep.
type WorkloadCrossoverPoint struct {
	// Factor multiplies the web-search distribution's flow sizes; MeanMB
	// is the resulting mean flow size.
	Factor float64
	MeanMB float64
	Flows  int
	// FairJPerGB and EnvyJPerGB are sender joules per gigabyte moved;
	// EnergyDeltaPct is (envy−fair)/fair·100, negative when envy saves.
	FairJPerGB     float64
	EnvyJPerGB     float64
	EnergyDeltaPct float64
	// EnvyP99ms is the envy policy's P99 flow sojourn time (fair's for
	// reference), the latency price of admission at this flow size.
	FairP99ms float64
	EnvyP99ms float64
}

// WorkloadCrossoverResult locates where online envy admission turns
// energy-positive: the workload-scale experiment showed mice-dominated
// production mixes losing energy to deferral, and §4's bulk transfers
// gaining — this sweep scales one distribution's flow sizes across that
// divide and finds the crossover factor.
type WorkloadCrossoverResult struct {
	Points []WorkloadCrossoverPoint
	// CrossoverFactor is the smallest swept factor where envy admission
	// uses less energy than fair sharing (0 when it never does).
	CrossoverFactor float64
	// CrossoverMeanMB is that factor's mean flow size.
	CrossoverMeanMB float64
}

func init() {
	Register(Experiment{
		Name: "workload-crossover", Order: 166, Section: "§5",
		Description: "flow-size sweep locating where envy admission turns energy-positive",
		CacheID:     "workload-crossover/",
		Run:         func(o Options) (Result, error) { return RunWorkloadCrossover(o) },
	})
}

// workloadCrossoverFactors scale the web-search distribution's flow sizes
// from 1% (the workload-scale regime, mice-dominated, envy loses) to 4×
// (bulk-dominated, §4's regime). The sweep brackets the crossover.
var workloadCrossoverFactors = []float64{0.01, 0.05, 0.25, 1, 4}

// RunWorkloadCrossover replays open-loop web-search arrivals at 50% load
// through a k=4 fat-tree converging on host 0, under fair admission and
// under the online envy policy, sweeping the flow-size factor. Flow count
// is 10^5·Scale per repetition (min 200) and the offered load is held
// constant — larger flows arrive proportionally less often — so the only
// moving part is how much wire time each flow gives the policy to amortize
// its ramp-up and idle-host costs over.
func RunWorkloadCrossover(o Options) (WorkloadCrossoverResult, error) {
	o, err := o.WithDefaults()
	if err != nil {
		return WorkloadCrossoverResult{}, err
	}
	flows := int(math.Round(1e5 * o.Scale))
	if flows < 200 {
		flows = 200
	}
	const load = 0.5
	cfg := netsim.DefaultFatTree(4)
	hostBps := float64(cfg.HostBps)
	payload := tcp.DefaultConfig().MTU - tcp.HeaderBytes
	envy := testbed.NewEnvyAdmission(energy.DefaultModel(), hostBps, payload, "cubic")
	policies := []testbed.Admission{testbed.FairAdmission{}, envy}

	var cells []registry.Cell[testbed.StreamResult]
	for _, factor := range workloadCrossoverFactors {
		dist := workload.Scaled{Dist: workload.WebSearch(), Factor: factor}
		for _, adm := range policies {
			id := fmt.Sprintf("workload-crossover/%s/load=%g/flows=%d/%s", dist.Name(), load, flows, adm.Name())
			cells = append(cells, streamCell(id, cfg, dist, load, flows, adm))
		}
	}
	runs, err := registry.Run(o, cells)
	if err != nil {
		return WorkloadCrossoverResult{}, err
	}

	var res WorkloadCrossoverResult
	for i, factor := range workloadCrossoverFactors {
		meanB := workload.Scaled{Dist: workload.WebSearch(), Factor: factor}.Mean()
		fr, er := runs[2*i], runs[2*i+1]
		fairJ := meanOver(fr, testbed.StreamResult.EnergyPerGB)
		envyJ := meanOver(er, testbed.StreamResult.EnergyPerGB)
		p := WorkloadCrossoverPoint{
			Factor:         factor,
			MeanMB:         meanB / 1e6,
			Flows:          flows,
			FairJPerGB:     fairJ,
			EnvyJPerGB:     envyJ,
			EnergyDeltaPct: (envyJ - fairJ) / fairJ * 100,
			FairP99ms:      meanOver(fr, func(r testbed.StreamResult) float64 { return r.P99FCT * 1000 }),
			EnvyP99ms:      meanOver(er, func(r testbed.StreamResult) float64 { return r.P99FCT * 1000 }),
		}
		res.Points = append(res.Points, p)
		if p.EnergyDeltaPct < 0 && res.CrossoverFactor == 0 {
			res.CrossoverFactor = factor
			res.CrossoverMeanMB = p.MeanMB
		}
		o.Logf("workload-crossover: factor %g (mean %.2f MB): fair %.1f J/GB, envy %.1f J/GB (%+.1f%%)",
			factor, p.MeanMB, fairJ, envyJ, p.EnergyDeltaPct)
	}
	return res, nil
}

// Table renders the crossover sweep and the located crossover.
func (r WorkloadCrossoverResult) Table() string {
	var b strings.Builder
	b.WriteString("Workload crossover (§5) — flow-size factor where envy admission turns energy-positive\n")
	b.WriteString("(web-search distribution, 50% load, k=4 fat-tree, size factor sweeps mean flow size)\n")
	fmt.Fprintf(&b, "%-8s %10s %8s %10s %10s %9s %12s %12s\n",
		"factor", "mean MB", "flows", "fair J/GB", "envy J/GB", "Δ energy", "fair p99 ms", "envy p99 ms")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-8g %10.2f %8d %10.1f %10.1f %8.1f%% %12.3f %12.3f\n",
			p.Factor, p.MeanMB, p.Flows, p.FairJPerGB, p.EnvyJPerGB, p.EnergyDeltaPct, p.FairP99ms, p.EnvyP99ms)
	}
	if r.CrossoverFactor > 0 {
		fmt.Fprintf(&b, "crossover: envy admission turns energy-positive at size factor %g (mean flow %.1f MB);\n",
			r.CrossoverFactor, r.CrossoverMeanMB)
		b.WriteString("below it, per-flow slow-start rounds dominate wire time and deferral pays idle-host energy\n")
	} else {
		b.WriteString("no crossover in the swept range: envy admission never beat fair sharing here\n")
	}
	return b.String()
}

// SVG renders the energy delta vs flow-size factor.
func (r WorkloadCrossoverResult) SVG() (string, error) {
	delta := plot.Series{Name: "envy - fair"}
	zero := plot.Series{Name: "break-even"}
	for _, p := range r.Points {
		x := math.Log10(p.Factor)
		delta.X = append(delta.X, x)
		delta.Y = append(delta.Y, p.EnergyDeltaPct)
		zero.X = append(zero.X, x)
		zero.Y = append(zero.Y, 0)
	}
	return plot.Chart{
		Title:  "Workload crossover — envy admission energy delta vs flow-size factor",
		XLabel: "log10(flow-size factor)",
		YLabel: "energy delta vs fair (%)",
		Kind:   "line",
		Series: []plot.Series{delta, zero},
	}.SVG()
}
