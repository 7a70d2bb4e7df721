package scenario

import (
	"fmt"
	"strings"

	"greenenvy/internal/iperf"
	"greenenvy/internal/netsim"
	"greenenvy/internal/plot"
	"greenenvy/internal/registry"
	"greenenvy/internal/sim"
	"greenenvy/internal/testbed"
)

// The literal-flows preset runs exactly the flows the spec lists — each with
// its own CCA, size, schedule, pacing, and fair-queue weight — once per
// repetition, and reports per-flow throughput alongside the run's sender
// energy and Jain fairness. Anything the testbed can express (heterogeneous
// RTTs, mixed CCAs, chained starts, background load, AQM bottlenecks) fits
// here.

// flowRow is one flow's aggregated outcome.
type flowRow struct {
	Path    string
	CCA     string
	Bytes   uint64
	StartMs float64
	Gbps    float64
	Seconds float64
}

// flowsResult is the compiled literal-flows outcome.
type flowsResult struct {
	Title    string
	Rows     []flowRow
	EnergyJ  registry.Agg
	PerGB    float64
	Jain     float64
	Seconds  float64
	GBytes   float64
	QueueKnd string
}

func runFlows(spec Spec, prefix string) func(registry.Options) (registry.Result, error) {
	return func(o registry.Options) (registry.Result, error) {
		o, err := o.WithDefaults()
		if err != nil {
			return nil, err
		}
		t := spec.Topology

		// Resolve each flow's size: gbit scales with Options.Scale exactly
		// like the handwritten figures' paper-sized transfers; bytes is
		// absolute.
		sizes := make([]uint64, len(spec.Flows))
		var totalBytes uint64
		var latestStart sim.Duration
		for i, f := range spec.Flows {
			if f.Gbit > 0 {
				sizes[i] = uint64(f.Gbit * float64(registry.PaperGbit) * o.Scale)
				if sizes[i] == 0 {
					return nil, errf("flow %d: scale too small", i)
				}
			} else {
				sizes[i] = f.Bytes
			}
			totalBytes += sizes[i]
			if d := msToDur(f.StartMs + f.DurationMs); d > latestStart {
				latestStart = d
			}
		}
		deadline := registry.DeadlineFor(totalBytes) + latestStart

		id := fmt.Sprintf("%s/flows=%d/total=%d", prefix, len(spec.Flows), totalBytes)
		if t.Kind == KindFatTree {
			// "/sh=0" is frozen into existing cache ids, like fattree-incast's.
			id = fmt.Sprintf("%s/ecmp=%d/sh=0", id, o.Seed)
		}

		metrics := []registry.Metric{registry.SenderJoules, registry.RunSeconds, jainOverFlows}
		for i := range spec.Flows {
			i := i
			metrics = append(metrics,
				func(r testbed.RunResult) float64 { return r.Reports[i].Bps },
				func(r testbed.RunResult) float64 { return r.Reports[i].Seconds })
		}

		// Flows land in spec order, each weight set as its flow lands, then
		// the start chains, then the loads. Every AddFlow draws start jitter
		// from the run RNG, so this order is part of the deterministic
		// schedule. Canonical already rejected bad chain targets, load
		// senders and loads on a fat-tree.
		cell := registry.TestbedCell(id, deadline, func(seed uint64) (*testbed.Testbed, error) {
			opts := testbed.Options{Seed: seed}
			var tb *testbed.Testbed
			if t.Kind == KindDumbbell {
				cfg := dumbbellConfig(t)
				cfg.BottleneckQueue = buildQueue(t.Queue, cfg.BufferBytes, cfg.MarkBytes, cfg.BottleneckBps, seed)
				opts.Senders = t.Senders
				tb = testbed.NewDumbbell(opts, cfg)
			} else {
				cfg := fatTreeConfig(t)
				cfg.ECMPSeed = o.Seed
				if t.Queue.Kind != "droptail" {
					q := t.Queue
					cfg.NewQueue = func(port netsim.FatTreePort) netsim.Queue {
						if port.Tier == netsim.TierHostUp {
							return nil // the host NIC keeps its unbuffered default
						}
						return buildQueue(q, cfg.BufferBytes, cfg.MarkBytes, tierRate(cfg, port.Tier), seed)
					}
				}
				tb = testbed.NewFatTree(opts, cfg)
			}
			clients := make([]*iperf.Client, len(spec.Flows))
			for i, f := range spec.Flows {
				fs := iperf.Spec{
					Bytes:     sizes[i],
					CCA:       f.CCA,
					TargetBps: f.TargetBps,
					StartAt:   sim.Time(msToDur(f.StartMs)),
					Duration:  msToDur(f.DurationMs),
				}
				var err error
				if t.Kind == KindDumbbell {
					clients[i], err = tb.AddFlow(f.Sender, fs)
				} else {
					clients[i], err = tb.AddFlowBetween(netsim.NodeID(f.Src), netsim.NodeID(f.Dst), fs)
				}
				if err == nil && f.Weight > 0 {
					err = tb.SetWeight(clients[i].Report().Flow, f.Weight)
				}
				if err != nil {
					return nil, fmt.Errorf("flow %d: %w", i, err)
				}
			}
			for i, f := range spec.Flows {
				if f.After != nil {
					clients[i].StartAfter(clients[*f.After])
				}
			}
			for i, l := range spec.Loads {
				if err := tb.AddLoad(l.Sender, l.Fraction); err != nil {
					return nil, fmt.Errorf("load %d: %w", i, err)
				}
			}
			return tb, nil
		})
		runs, err := registry.Run(o, []registry.Cell[testbed.RunResult]{cell})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		aggs := registry.Aggregate(runs[0], metrics...)

		res := &flowsResult{
			Title:    fmt.Sprintf("Scenario %s — %d flow(s) on the %s topology, %s bottleneck", spec.Name, len(spec.Flows), t.Kind, t.Queue.Kind),
			EnergyJ:  aggs[0],
			Seconds:  aggs[1].Mean,
			Jain:     aggs[2].Mean,
			GBytes:   float64(totalBytes) / 1e9,
			QueueKnd: t.Queue.Kind,
		}
		res.PerGB = res.EnergyJ.Mean / res.GBytes
		for i, f := range spec.Flows {
			path := fmt.Sprintf("s%d", f.Sender)
			if t.Kind == KindFatTree {
				path = fmt.Sprintf("%d->%d", f.Src, f.Dst)
			}
			res.Rows = append(res.Rows, flowRow{
				Path:    path,
				CCA:     f.CCA,
				Bytes:   sizes[i],
				StartMs: f.StartMs,
				Gbps:    aggs[3+2*i].Mean / 1e9,
				Seconds: aggs[4+2*i].Mean,
			})
		}
		o.Logf("%s: %d flows, %.1f±%.1f J (%.1f J/GB), jain=%.3f",
			spec.Name, len(spec.Flows), res.EnergyJ.Mean, res.EnergyJ.Std, res.PerGB, res.Jain)
		return res, nil
	}
}

// msToDur converts milliseconds (the spec's schedule unit) to sim time.
func msToDur(ms float64) sim.Duration {
	return sim.Duration(ms * float64(sim.Millisecond))
}

// tierRate is the drain rate of a fat-tree port's link, used to configure
// rate-aware disciplines (PIE) per tier.
func tierRate(cfg netsim.FatTreeConfig, tier netsim.PortTier) int64 {
	switch tier {
	case netsim.TierHostUp, netsim.TierHostDown:
		return cfg.HostBps
	case netsim.TierEdgeUp, netsim.TierAggDown:
		return cfg.EdgeAggBps
	default:
		return cfg.AggCoreBps
	}
}

// Table renders per-flow rows plus run totals.
func (r *flowsResult) Table() string {
	var b strings.Builder
	b.WriteString(r.Title + "\n")
	fmt.Fprintf(&b, "%-6s %-10s %-8s %14s %10s %12s %10s\n", "flow", "path", "cca", "bytes", "start(ms)", "thru (Gbps)", "time (s)")
	for i, row := range r.Rows {
		fmt.Fprintf(&b, "%-6d %-10s %-8s %14d %10.1f %12.3f %10.3f\n",
			i, row.Path, row.CCA, row.Bytes, row.StartMs, row.Gbps, row.Seconds)
	}
	fmt.Fprintf(&b, "sender energy: %.1f ±%.1f J (%.1f J/GB)   jain: %.3f   run: %.3f s\n",
		r.EnergyJ.Mean, r.EnergyJ.Std, r.PerGB, r.Jain, r.Seconds)
	return b.String()
}

// SVG renders per-flow achieved throughput.
func (r *flowsResult) SVG() (string, error) {
	thru := plot.Series{Name: "throughput"}
	for i, row := range r.Rows {
		thru.X = append(thru.X, float64(i))
		thru.Y = append(thru.Y, row.Gbps)
	}
	return plot.Chart{
		Title:  r.Title,
		XLabel: "flow index",
		YLabel: "achieved throughput (Gbps)",
		Kind:   "line",
		Series: []plot.Series{thru},
	}.SVG()
}
