package greenenvy

import (
	"fmt"
	"strings"

	"greenenvy/internal/iperf"
	"greenenvy/internal/registry"
	"greenenvy/internal/testbed"
)

func init() {
	Register(Experiment{
		Name: "fig4", Aliases: []string{"4"}, Order: 40, Section: "§4.2",
		Description: "sender power vs bitrate under background load, plus loaded savings",
		CacheID:     "fig4/",
		Run:         func(o Options) (Result, error) { return RunFig4(o) },
	})
}

// Fig4Point is one (load, bitrate) cell of Figure 4.
type Fig4Point struct {
	Load  float64 // background load fraction
	Gbps  float64
	MeanW float64
	StdW  float64
}

// Fig4Savings is one row of the §4.2 result: serial-schedule savings at a
// given background load.
type Fig4Savings struct {
	Load        float64
	FairJ       float64
	SerialJ     float64
	SavingsPct  float64
	PaperTarget string // the paper's quoted figure, for the report
}

// Fig4Result reproduces Figure 4 ("Rate of energy consumption for a CUBIC
// sender with different amounts of server loads in the background") plus
// the §4.2 savings claims (≈16 % unloaded, ≈1 % at 25 %, ≈0.17 % at 75 %)
// and the $10M/year extrapolation.
type Fig4Result struct {
	Points  []Fig4Point
	Savings []Fig4Savings
	// DollarsPerYearAt1Pct is the §4.2 extrapolation for a 1 % saving.
	DollarsPerYearAt1Pct float64
}

// RunFig4 measures power-vs-bitrate for background loads of 0/25/50/75 %
// and, for each load, the fair-vs-serial energy delta for two competing
// flows.
func RunFig4(o Options) (Fig4Result, error) {
	o, err := o.WithDefaults()
	if err != nil {
		return Fig4Result{}, err
	}
	var res Fig4Result
	loads := []float64{0, 0.25, 0.50, 0.75}

	hold := 1.5 * o.Scale / 0.04
	if hold > 6 {
		hold = 6
	}
	if hold < 0.4 {
		hold = 0.4
	}
	rates := []float64{1, 2.5, 5, 7.5, 10}
	var cells []registry.Cell[testbed.RunResult]
	for _, load := range loads {
		for _, gbps := range rates {
			bytes := uint64(gbps * 1e9 / 8 * hold)
			id := fmt.Sprintf("fig4/load=%g/target=%g/bytes=%d", load, gbps, bytes)
			cells = append(cells, registry.TestbedCell(id, registry.DeadlineFor(bytes), func(seed uint64) (*testbed.Testbed, error) {
				tb := testbed.New(testbed.Options{Seed: seed})
				if err := tb.AddLoad(0, load); err != nil {
					return nil, err
				}
				_, err := tb.AddFlow(0, iperf.Spec{Bytes: bytes, CCA: "cubic", TargetBps: int64(gbps * 1e9)})
				return tb, err
			}))
		}
	}

	// §4.2 savings: two flows, fair (WFQ 50/50) vs serial, on loaded
	// senders; one fair and one serial cell per load.
	bytes := uint64(10 * registry.PaperGbit * o.Scale)
	for _, load := range loads {
		for _, f := range []float64{0.5, 1} { // fair, serial
			serial := f == 1
			id := fmt.Sprintf("fig4/savings/load=%g/serial=%t/bytes=%d", load, serial, bytes)
			cells = append(cells, registry.TestbedCell(id, registry.DeadlineFor(2*bytes), func(seed uint64) (*testbed.Testbed, error) {
				tb := testbed.New(testbed.Options{Senders: 2, UseDRR: !serial, Seed: seed})
				for i := 0; i < 2; i++ {
					if err := tb.AddLoad(i, load); err != nil {
						return nil, err
					}
				}
				return tb, addFlowPair(tb, 1, bytes, f)
			}))
		}
	}
	runs, err := registry.Run(o, cells)
	if err != nil {
		return Fig4Result{}, err
	}

	for li, load := range loads {
		for ri, gbps := range rates {
			watts := registry.Aggregate(runs[li*len(rates)+ri], registry.FirstSenderWatts)[0]
			res.Points = append(res.Points, Fig4Point{Load: load, Gbps: gbps, MeanW: watts.Mean, StdW: watts.Std})
			o.Logf("fig4: load %.0f%% %.1f Gb/s -> %.2f W", load*100, gbps, watts.Mean)
		}
	}
	targets := map[float64]string{0: "~16%", 0.25: "~1%", 0.50: "(not quoted)", 0.75: "~0.17%"}
	savings := runs[len(loads)*len(rates):]
	for li, load := range loads {
		fairJ := registry.Aggregate(savings[2*li], registry.SenderJoules)[0].Mean
		serialJ := registry.Aggregate(savings[2*li+1], registry.SenderJoules)[0].Mean
		res.Savings = append(res.Savings, Fig4Savings{
			Load:        load,
			FairJ:       fairJ,
			SerialJ:     serialJ,
			SavingsPct:  (fairJ - serialJ) / fairJ * 100,
			PaperTarget: targets[load],
		})
		o.Logf("fig4: load %.0f%% savings %.2f%%", load*100, (fairJ-serialJ)/fairJ*100)
	}

	dc := PaperDatacenter()
	usd, err := dc.YearlySavingsUSD(0.01)
	if err != nil {
		return Fig4Result{}, err
	}
	res.DollarsPerYearAt1Pct = usd
	return res, nil
}

// Table renders the Figure 4 grid and the §4.2 savings rows.
func (r Fig4Result) Table() string {
	var b strings.Builder
	b.WriteString("Figure 4 — sender power vs bitrate under background load (CUBIC)\n")
	fmt.Fprintf(&b, "%-8s", "Gb/s")
	loads := []float64{0, 0.25, 0.50, 0.75}
	for _, l := range loads {
		fmt.Fprintf(&b, " %9.0f%%", l*100)
	}
	b.WriteString("\n")
	byRate := map[float64]map[float64]Fig4Point{}
	var rates []float64
	for _, p := range r.Points {
		if byRate[p.Gbps] == nil {
			byRate[p.Gbps] = map[float64]Fig4Point{}
			rates = append(rates, p.Gbps)
		}
		byRate[p.Gbps][p.Load] = p
	}
	for _, rate := range rates {
		fmt.Fprintf(&b, "%-8.1f", rate)
		for _, l := range loads {
			fmt.Fprintf(&b, " %9.2fW", byRate[rate][l].MeanW)
		}
		b.WriteString("\n")
	}
	b.WriteString("\n§4.2 — serial-schedule savings under load:\n")
	fmt.Fprintf(&b, "%-8s %12s %12s %10s %10s\n", "load", "fair (J)", "serial (J)", "savings", "paper")
	for _, s := range r.Savings {
		fmt.Fprintf(&b, "%-8.0f%% %11.1f %12.1f %9.2f%% %10s\n", s.Load*100, s.FairJ, s.SerialJ, s.SavingsPct, s.PaperTarget)
	}
	fmt.Fprintf(&b, "extrapolation: 1%% of a 100k-rack datacenter at $10k/rack/yr = $%.0fM/yr (paper: ~$10M)\n", r.DollarsPerYearAt1Pct/1e6)
	return b.String()
}
