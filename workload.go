package greenenvy

import (
	"fmt"
	"strings"

	"greenenvy/internal/iperf"
	"greenenvy/internal/registry"
	"greenenvy/internal/sim"
	"greenenvy/internal/stats"
	"greenenvy/internal/testbed"
	"greenenvy/internal/workload"
)

// WorkloadPoint is one (distribution, load) cell of the realistic-workload
// experiment.
type WorkloadPoint struct {
	Dist  string
	Load  float64
	Flows int
	// EnergyPerGB is sender-side joules per gigabyte moved — the
	// workload-level energy-efficiency metric.
	EnergyPerGB float64
	// AvgPowerW is mean sender power over the run.
	AvgPowerW float64
	// MeanFCTms and P99FCTms summarize flow completion times.
	MeanFCTms float64
	P99FCTms  float64
	// GBMoved is the total volume.
	GBMoved float64
}

// WorkloadResult answers §5's call to test the energy findings "with the
// sorts of workloads used in production data centers": Poisson arrivals of
// web-search and data-mining sized flows at increasing offered load. The
// concavity of the power curve shows up as energy-per-byte *falling* as
// load rises — busy hosts amortize their wake power, the same physics that
// makes the serial schedule win in Figure 1.
type WorkloadResult struct {
	Points []WorkloadPoint
}

func init() {
	Register(Experiment{
		Name: "workload", Order: 160, Section: "§5",
		Description: "datacenter workloads: energy per byte vs offered load",
		CacheID:     "workload/",
		Run:         func(o Options) (Result, error) { return RunWorkload(o) },
	})
}

// RunWorkload measures energy per byte and FCTs for datacenter workloads
// at several offered loads. Flows spread round-robin over four sender
// hosts; energy is the sum over senders from experiment start until the
// last flow completes.
func RunWorkload(o Options) (WorkloadResult, error) {
	o, err := o.WithDefaults()
	if err != nil {
		return WorkloadResult{}, err
	}
	window := sim.Duration(float64(2*sim.Second) * (o.Scale / 0.04))
	if window < 200*sim.Millisecond {
		window = 200 * sim.Millisecond
	}
	if window > 5*sim.Second {
		window = 5 * sim.Second
	}
	const senders = 4
	dists := []workload.SizeDist{workload.WebSearch(), workload.DataMining()}
	loads := []float64{0.2, 0.5, 0.8}
	var cells []registry.Cell[testbed.RunResult]
	for _, dist := range dists {
		for _, load := range loads {
			id := fmt.Sprintf("workload/%s/load=%g/window=%d", dist.Name(), load, int64(window))
			cells = append(cells, registry.TestbedCell(id, window*8+20*sim.Second, func(seed uint64) (*testbed.Testbed, error) {
				rng := sim.NewRNG(seed)
				flows, err := workload.Generate(rng, dist, load, 10e9, window)
				if err != nil {
					return nil, err
				}
				tb := testbed.New(testbed.Options{Senders: senders, Seed: seed})
				for i, f := range flows {
					_, err := tb.AddFlow(i%senders, iperf.Spec{
						Bytes:   f.Bytes,
						CCA:     "cubic",
						StartAt: f.Start,
					})
					if err != nil {
						return nil, err
					}
				}
				return tb, nil
			}))
		}
	}
	cellRuns, err := registry.Run(o, cells)
	if err != nil {
		return WorkloadResult{}, err
	}

	var res WorkloadResult
	for di, dist := range dists {
		for li, load := range loads {
			runs := cellRuns[di*len(loads)+li]
			var energies, gbs, powers []float64
			var meanFCTs, p99FCTs []float64
			for _, r := range runs {
				var bytes float64
				var fcts []float64
				for _, rep := range r.Reports {
					bytes += float64(rep.Bytes)
					fcts = append(fcts, rep.Seconds*1000)
				}
				energies = append(energies, r.TotalSenderJ)
				gbs = append(gbs, bytes/1e9)
				powers = append(powers, r.AvgSenderPowerW)
				meanFCTs = append(meanFCTs, stats.Mean(fcts))
				p99FCTs = append(p99FCTs, stats.Percentiles(fcts, 99)[0])
			}
			// One flow per iperf report; the last repetition's count
			// matches what the serial runner reported.
			flowsUsed := len(runs[len(runs)-1].Reports)
			res.Points = append(res.Points, WorkloadPoint{
				Dist:        dist.Name(),
				Load:        load,
				Flows:       flowsUsed,
				EnergyPerGB: stats.Mean(energies) / stats.Mean(gbs),
				AvgPowerW:   stats.Mean(powers),
				MeanFCTms:   stats.Mean(meanFCTs),
				P99FCTms:    stats.Mean(p99FCTs),
				GBMoved:     stats.Mean(gbs),
			})
			o.Logf("workload: %s load %.1f: %.1f J/GB, mean fct %.2f ms",
				dist.Name(), load, res.Points[len(res.Points)-1].EnergyPerGB,
				res.Points[len(res.Points)-1].MeanFCTms)
		}
	}
	return res, nil
}

// Table renders the workload experiment.
func (r WorkloadResult) Table() string {
	var b strings.Builder
	b.WriteString("Datacenter workloads (§5) — energy per byte vs offered load (CUBIC, 4 senders)\n")
	fmt.Fprintf(&b, "%-12s %6s %7s %9s %12s %12s %12s\n",
		"workload", "load", "flows", "GB", "J/GB", "mean fct ms", "p99 fct ms")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-12s %6.1f %7d %9.2f %12.1f %12.2f %12.2f\n",
			p.Dist, p.Load, p.Flows, p.GBMoved, p.EnergyPerGB, p.MeanFCTms, p.P99FCTms)
	}
	b.WriteString("(concavity at work: joules per byte FALL as load rises — the busy-host\n")
	b.WriteString(" efficiency that makes the paper's unfair schedules green)\n")
	return b.String()
}
