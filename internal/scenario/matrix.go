package scenario

import (
	"fmt"
	"strings"

	"greenenvy/internal/iperf"
	"greenenvy/internal/plot"
	"greenenvy/internal/registry"
	"greenenvy/internal/stats"
	"greenenvy/internal/testbed"
)

// The aqm-matrix preset crosses congestion-control algorithms with queue
// disciplines on the dumbbell bottleneck: every sender runs one same-sized
// flow of the cell's CCA through the cell's queue, and the cell reports
// energy per delivered gigabyte alongside Jain's fairness index over the
// flows' achieved throughputs. The matrix makes the paper's tension
// measurable in one table: disciplines that equalize flows (DRR, FQ-CoDel)
// pin Jain near 1 while the unfair completions that Theorem 1 credits with
// energy savings need the opposite.

// matrixCell is one CCA × queue cell.
type matrixCell struct {
	CCA        string
	Queue      string
	JoulePerGB float64
	JouleStd   float64
	Jain       float64
	Seconds    float64
}

// matrixResult is the compiled aqm-matrix outcome.
type matrixResult struct {
	CCAs   []string
	Queues []string
	Cells  []matrixCell
	GBytes float64
}

// jainOverFlows is the per-repetition fairness metric: Jain's index over
// the flows' mean throughputs.
func jainOverFlows(r testbed.RunResult) float64 {
	bps := make([]float64, len(r.Reports))
	for i, rep := range r.Reports {
		bps[i] = rep.Bps
	}
	return stats.JainIndex(bps)
}

func runAQMMatrix(spec Spec, prefix string) func(registry.Options) (registry.Result, error) {
	return func(o registry.Options) (registry.Result, error) {
		o, err := o.WithDefaults()
		if err != nil {
			return nil, err
		}
		bytes := uint64(spec.Sweep.GbitPerFlow * float64(registry.PaperGbit) * o.Scale)
		if bytes == 0 {
			return nil, errf("scale too small")
		}
		senders := spec.Topology.Senders
		totalBytes := uint64(senders) * bytes
		res := &matrixResult{GBytes: float64(totalBytes) / 1e9}
		base := dumbbellConfig(spec.Topology)
		deadline := registry.DeadlineFor(totalBytes)

		for _, q := range spec.Sweep.Queues {
			res.Queues = append(res.Queues, q.Kind)
		}
		var cells []registry.Cell[testbed.RunResult]
		for _, ccaName := range spec.Sweep.CCAs {
			for _, q := range spec.Sweep.Queues {
				id := fmt.Sprintf("%s/cca=%s/q=%s/bytes=%d", prefix, ccaName, q.Kind, bytes)
				cells = append(cells, registry.TestbedCell(id, deadline, func(seed uint64) (*testbed.Testbed, error) {
					cfg := base
					cfg.BottleneckQueue = buildQueue(q, cfg.BufferBytes, cfg.MarkBytes, cfg.BottleneckBps, seed)
					tb := testbed.NewDumbbell(testbed.Options{Senders: senders, Seed: seed}, cfg)
					for s := 0; s < senders; s++ {
						if _, err := tb.AddFlow(s, iperf.Spec{Bytes: bytes, CCA: ccaName}); err != nil {
							return nil, err
						}
					}
					return tb, nil
				}))
			}
		}
		runs, err := registry.Run(o, cells)
		if err != nil {
			return nil, err
		}
		for i, ccaName := range spec.Sweep.CCAs {
			res.CCAs = append(res.CCAs, ccaName)
			for j, q := range spec.Sweep.Queues {
				aggs := registry.Aggregate(runs[i*len(spec.Sweep.Queues)+j], registry.SenderJoules, registry.RunSeconds, jainOverFlows)
				cell := matrixCell{
					CCA:        ccaName,
					Queue:      q.Kind,
					JoulePerGB: aggs[0].Mean / res.GBytes,
					JouleStd:   aggs[0].Std / res.GBytes,
					Jain:       aggs[2].Mean,
					Seconds:    aggs[1].Mean,
				}
				res.Cells = append(res.Cells, cell)
				o.Logf("%s: cca=%s q=%s %.1f J/GB jain=%.3f", spec.Name, ccaName, q.Kind, cell.JoulePerGB, cell.Jain)
			}
		}
		return res, nil
	}
}

// Table renders one row per CCA × queue cell.
func (r *matrixResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "AQM matrix — energy per delivered GB and Jain fairness, %d CCAs x %d queues (%.2f GB total per cell)\n",
		len(r.CCAs), len(r.Queues), r.GBytes)
	fmt.Fprintf(&b, "%-8s %-10s %14s %8s %10s\n", "cca", "queue", "J/GB", "jain", "time (s)")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-8s %-10s %8.1f ±%4.1f %8.3f %10.3f\n", c.CCA, c.Queue, c.JoulePerGB, c.JouleStd, c.Jain, c.Seconds)
	}
	b.WriteString("(fair-queueing disciplines pin jain near 1; Theorem 1's savings require letting it drop)\n")
	return b.String()
}

// SVG renders J/GB per queue discipline, one line per CCA.
func (r *matrixResult) SVG() (string, error) {
	byCCA := map[string]*plot.Series{}
	var series []plot.Series
	for _, name := range r.CCAs {
		byCCA[name] = &plot.Series{Name: name}
	}
	for _, c := range r.Cells {
		s := byCCA[c.CCA]
		s.X = append(s.X, float64(len(s.X)))
		s.Y = append(s.Y, c.JoulePerGB)
	}
	for _, name := range r.CCAs {
		series = append(series, *byCCA[name])
	}
	return plot.Chart{
		Title:  "AQM matrix — J/GB per queue discipline (x: queue index " + strings.Join(r.Queues, ", ") + ")",
		XLabel: "queue discipline index",
		YLabel: "sender energy (J/GB)",
		Kind:   "line",
		Series: series,
	}.SVG()
}
