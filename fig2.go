package greenenvy

import (
	"fmt"
	"strings"

	"greenenvy/internal/energy"
	"greenenvy/internal/iperf"
	"greenenvy/internal/registry"
	"greenenvy/internal/sim"
	"greenenvy/internal/testbed"
)

func init() {
	Register(Experiment{
		Name: "fig2", Aliases: []string{"2"}, Order: 20, Section: "§4.1",
		Description: "sender power vs throughput: the concave curve and its tangent",
		CacheID:     "fig2/",
		Run:         func(o Options) (Result, error) { return RunFig2(o) },
	})
}

// Fig2Point is one throughput step of Figure 2.
type Fig2Point struct {
	Gbps float64
	// SmoothW is the measured average sender power when sending smoothly
	// at this rate (blue line); StdW its repetition spread.
	SmoothW float64
	StdW    float64
	// TangentW is the power of the duty-cycled "full speed, then idle"
	// strategy achieving the same average throughput (orange line).
	TangentW float64
}

// Fig2Result reproduces Figure 2: "Rate of energy consumption for a CUBIC
// sender while sending at different throughputs" — a strictly concave
// curve, with the tangent line strictly below it.
type Fig2Result struct {
	Points []Fig2Point
	// Anchor values for comparison with the paper's quoted numbers.
	IdleW, HalfRateW, LineRateW float64
}

// RunFig2 measures sender power for a CUBIC flow rate-limited (iperf3 -b)
// to each throughput step, plus the idle point, and constructs the tangent
// line from the measured endpoints.
func RunFig2(o Options) (Fig2Result, error) {
	o, err := o.WithDefaults()
	if err != nil {
		return Fig2Result{}, err
	}
	var res Fig2Result

	// Idle point: a bare host, no traffic.
	idle := measureIdleWatts()
	res.Points = append(res.Points, Fig2Point{Gbps: 0, SmoothW: idle, TangentW: idle})
	res.IdleW = idle
	o.Logf("fig2: idle %.2f W", idle)

	// Duration target per run (seconds of steady sending).
	hold := 2.0 * o.Scale / 0.04 // 2 s at the default scale
	if hold > 10 {
		hold = 10
	}
	if hold < 0.5 {
		hold = 0.5
	}
	rates := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cells := make([]registry.Cell[testbed.RunResult], len(rates))
	for i, gbps := range rates {
		bytes := uint64(gbps * 1e9 / 8 * hold)
		id := fmt.Sprintf("fig2/target=%g/bytes=%d", gbps, bytes)
		cells[i] = registry.TestbedCell(id, registry.DeadlineFor(bytes), func(seed uint64) (*testbed.Testbed, error) {
			tb := testbed.New(testbed.Options{Seed: seed})
			_, err := tb.AddFlow(0, iperf.Spec{Bytes: bytes, CCA: "cubic", TargetBps: int64(gbps * 1e9)})
			return tb, err
		})
	}
	runs, err := registry.Run(o, cells)
	if err != nil {
		return Fig2Result{}, err
	}
	for i, gbps := range rates {
		watts := registry.Aggregate(runs[i], registry.FirstSenderWatts)[0]
		res.Points = append(res.Points, Fig2Point{Gbps: gbps, SmoothW: watts.Mean, StdW: watts.Std})
		o.Logf("fig2: %.0f Gb/s -> %.2f ± %.2f W", gbps, watts.Mean, watts.Std)
	}

	// Tangent line between the measured idle and line-rate points.
	line := res.Points[len(res.Points)-1].SmoothW
	for i := range res.Points {
		f := res.Points[i].Gbps / 10
		res.Points[i].TangentW = idle + f*(line-idle)
	}
	for _, p := range res.Points {
		if p.Gbps == 5 {
			res.HalfRateW = p.SmoothW
		}
	}
	res.LineRateW = line
	return res, nil
}

// measureIdleWatts runs a bare meter for one second of simulated time.
func measureIdleWatts() float64 {
	e := sim.NewEngine()
	m := energy.NewMeter(e, energy.ServerCurve(), energy.DefaultCostModel())
	e.RunUntil(sim.Second)
	m.Sync()
	return m.Joules()
}

// Table renders the Figure 2 rows.
func (r Fig2Result) Table() string {
	var b strings.Builder
	b.WriteString("Figure 2 — sender power vs throughput (CUBIC, MTU 9000)\n")
	fmt.Fprintf(&b, "%-8s %16s %12s\n", "Gb/s", "smooth (W)", "tangent (W)")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-8.0f %10.2f ±%4.2f %12.2f\n", p.Gbps, p.SmoothW, p.StdW, p.TangentW)
	}
	fmt.Fprintf(&b, "anchors: idle %.2f W (paper 21.49), 5 Gb/s %.2f W (paper 34.23), 10 Gb/s %.2f W (paper 35.82)\n",
		r.IdleW, r.HalfRateW, r.LineRateW)
	return b.String()
}
