package greenenvy

import (
	"fmt"
	"strings"

	"greenenvy/internal/iperf"
	"greenenvy/internal/netsim"
	"greenenvy/internal/registry"
	"greenenvy/internal/sim"
	"greenenvy/internal/testbed"
)

// Fig3Sample is one throughput sample of one flow.
type Fig3Sample struct {
	Seconds float64
	Gbps    [2]float64 // flow 1 and flow 2
}

// Fig3Result reproduces Figure 3: throughput-versus-time traces for the
// fair allocation (left: both flows hold ~5 Gb/s for ~2 s) and the serial
// "full speed, then idle" schedule (right: square waves at line rate).
type Fig3Result struct {
	Fair   []Fig3Sample
	Serial []Fig3Sample
	// FlowGbit is the per-flow transfer size.
	FlowGbit float64
}

func init() {
	Register(Experiment{
		Name: "fig3", Aliases: []string{"3"}, Order: 30, Section: "§4.1",
		Description: "throughput-over-time traces: fair split vs full speed then idle",
		CacheID:     "fig3/",
		Run:         func(o Options) (Result, error) { return RunFig3(o) },
	})
}

// RunFig3 runs the two scenarios once each (traces, not statistics) and
// samples per-flow goodput every 10 ms.
func RunFig3(o Options) (Fig3Result, error) {
	o, err := o.WithDefaults()
	if err != nil {
		return Fig3Result{}, err
	}
	bytes := uint64(10 * registry.PaperGbit * o.Scale)
	res := Fig3Result{FlowGbit: float64(bytes) * 8 / 1e9}

	store := o.CacheStore()
	trace := func(serial bool) ([]Fig3Sample, error) {
		// Traces are not RunResults, so they get their own cached value
		// type; the key carries the scenario, size, and seed.
		key, err := o.CacheKey("fig3/trace", serial, bytes, o.Seed)
		if err != nil {
			return nil, err
		}
		var cached []Fig3Sample
		if store.Get(key, &cached) {
			return cached, nil
		}
		tb := testbed.New(testbed.Options{Senders: 2, UseDRR: !serial, Seed: o.Seed})
		c1, err := tb.AddFlow(0, iperf.Spec{Bytes: bytes, CCA: "cubic"})
		if err != nil {
			return nil, err
		}
		c2, err := tb.AddFlow(1, iperf.Spec{Bytes: bytes, CCA: "cubic"})
		if err != nil {
			return nil, err
		}
		f1, f2 := c1.Report().Flow, c2.Report().Flow
		if serial {
			c2.StartAfter(c1)
		} else {
			if err := tb.SetWeight(f1, 0.5); err != nil {
				return nil, err
			}
			if err := tb.SetWeight(f2, 0.5); err != nil {
				return nil, err
			}
		}
		// Sample each receiver's delivered bytes every 10 ms from run start
		// until both transfers are done.
		mon := netsim.NewThroughputMonitor(tb.Engine, 10*sim.Millisecond)
		for _, c := range []*iperf.Client{c1, c2} {
			flow := c.Report().Flow
			c.Receiver().OnData = func(n int) { mon.Observe(flow, n) }
			c.OnDone(func(*iperf.Client) {
				if c1.Done() && c2.Done() {
					mon.Stop()
				}
			})
		}
		mon.Start()
		if _, err := tb.Run(registry.DeadlineFor(2 * bytes)); err != nil {
			return nil, err
		}
		samples := mergeSeries(mon.Series(f1), mon.Series(f2))
		_ = store.Put(key, samples)
		return samples, nil
	}

	if res.Fair, err = trace(false); err != nil {
		return Fig3Result{}, fmt.Errorf("fair trace: %w", err)
	}
	if res.Serial, err = trace(true); err != nil {
		return Fig3Result{}, fmt.Errorf("serial trace: %w", err)
	}
	return res, nil
}

// mergeSeries zips two per-flow sample series on their timestamps.
func mergeSeries(a, b []netsim.ThroughputSample) []Fig3Sample {
	byTime := map[sim.Time]*Fig3Sample{}
	var order []sim.Time
	get := func(at sim.Time) *Fig3Sample {
		if s, ok := byTime[at]; ok {
			return s
		}
		s := &Fig3Sample{Seconds: at.Seconds()}
		byTime[at] = s
		order = append(order, at)
		return s
	}
	for _, s := range a {
		get(s.At).Gbps[0] = s.Bps / 1e9
	}
	for _, s := range b {
		get(s.At).Gbps[1] = s.Bps / 1e9
	}
	out := make([]Fig3Sample, 0, len(order))
	for _, at := range order {
		out = append(out, *byTime[at])
	}
	return out
}

// Table renders both traces side by side.
func (r Fig3Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 — throughput traces (%.1f Gbit/flow); left: fair, right: full speed then idle\n", r.FlowGbit)
	fmt.Fprintf(&b, "%-10s %8s %8s   | %8s %8s\n", "t (s)", "f1 Gb/s", "f2 Gb/s", "f1 Gb/s", "f2 Gb/s")
	n := len(r.Fair)
	if len(r.Serial) > n {
		n = len(r.Serial)
	}
	for i := 0; i < n; i++ {
		var ts float64
		cols := [4]float64{}
		if i < len(r.Fair) {
			ts = r.Fair[i].Seconds
			cols[0], cols[1] = r.Fair[i].Gbps[0], r.Fair[i].Gbps[1]
		}
		if i < len(r.Serial) {
			if ts == 0 {
				ts = r.Serial[i].Seconds
			}
			cols[2], cols[3] = r.Serial[i].Gbps[0], r.Serial[i].Gbps[1]
		}
		fmt.Fprintf(&b, "%-10.2f %8.2f %8.2f   | %8.2f %8.2f\n", ts, cols[0], cols[1], cols[2], cols[3])
	}
	return b.String()
}
