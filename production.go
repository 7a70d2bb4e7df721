package greenenvy

import (
	"fmt"
	"strings"

	"greenenvy/internal/cca"
	"greenenvy/internal/iperf"
	"greenenvy/internal/registry"
	"greenenvy/internal/stats"
	"greenenvy/internal/tcp"
	"greenenvy/internal/testbed"
)

func init() {
	Register(Experiment{
		Name: "production", Order: 150, Section: "§5",
		Description: "extended benchmark: Swift, DCQCN, HPCC vs CUBIC and DCTCP",
		CacheID:     "production/",
		Run:         func(o Options) (Result, error) { return RunProduction(o) },
	})
}

// ProductionCell is one (algorithm, MTU) cell of the §5 extended
// benchmark. It shares the sweep's cell shape and accessors.
type ProductionCell = SweepCell

// ProductionResult is the benchmark the paper's §5 invites the community
// to build: a standardized energy evaluation of the production datacenter
// algorithms (Swift, DCQCN, HPCC) it could not measure, alongside CUBIC
// and DCTCP as points of reference.
type ProductionResult struct {
	Cells []ProductionCell
	Bytes uint64
	// ScaleToPaper converts to the 50 GB scale of Figures 5–7.
	ScaleToPaper float64
}

// productionSet is the benchmark's algorithm list: the §5 trio plus two
// paper algorithms for cross-reference.
func productionSet() []string {
	return append([]string{"cubic", "dctcp"}, cca.ProductionOrder()...)
}

// RunProduction measures the extended benchmark. Runs use a
// DCTCP/DCQCN-style marking bottleneck (K = 100 KiB), which is inert for
// the non-ECN algorithms.
func RunProduction(o Options) (ProductionResult, error) {
	o, err := o.WithDefaults()
	if err != nil {
		return ProductionResult{}, err
	}
	bytes := uint64(float64(paperTransferBytes) * o.Scale)
	res := ProductionResult{Bytes: bytes, ScaleToPaper: float64(paperTransferBytes) / float64(bytes)}
	mtus := []int{1500, 9000}
	var cells []registry.Cell[testbed.RunResult]
	for _, name := range productionSet() {
		for _, mtu := range mtus {
			id := fmt.Sprintf("production/%s/mtu=%d/bytes=%d", name, mtu, bytes)
			cells = append(cells, registry.TestbedCell(id, registry.DeadlineFor(bytes)*4, func(seed uint64) (*testbed.Testbed, error) {
				tb := testbed.New(testbed.Options{Seed: seed, MarkBytes: 100 << 10})
				_, err := tb.AddFlow(0, iperf.Spec{Bytes: bytes, CCA: name, Config: tcp.Config{MTU: mtu}})
				return tb, err
			}))
		}
	}
	runs, err := registry.Run(o, cells)
	if err != nil {
		return ProductionResult{}, err
	}
	for i, name := range productionSet() {
		for j, mtu := range mtus {
			cell := cellFromRuns(name, mtu, runs[i*len(mtus)+j])
			o.Logf("production: %-6s mtu %-5d energy %s J fct %s s",
				name, mtu, stats.Summary(cell.EnergyJ), stats.Summary(cell.FCTSecs))
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// Table renders the extended benchmark.
func (r ProductionResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§5 extended benchmark — production datacenter CCAs (50 GB scale, ×%.0f from %.1f GB runs)\n",
		r.ScaleToPaper, float64(r.Bytes)/1e9)
	fmt.Fprintf(&b, "%-8s %6s %14s %10s %10s %10s\n", "cca", "mtu", "energy (kJ)", "fct (s)", "power (W)", "retx")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-8s %6d %14.3f %10.1f %10.2f %10.0f\n",
			c.CCA, c.MTU,
			stats.Mean(c.EnergyJ)*r.ScaleToPaper/1000,
			stats.Mean(c.FCTSecs)*r.ScaleToPaper,
			stats.Mean(c.PowerW),
			stats.Mean(c.Retx)*r.ScaleToPaper)
	}
	b.WriteString("(the benchmark §5 invites: \"we invite the community to build a benchmark\n")
	b.WriteString(" for a standardized evaluation of such algorithms\")\n")
	b.WriteString("notes: HPCC trades ~5-10% completion time for near-empty queues (η=0.95);\n")
	b.WriteString(" DCQCN assumes a lossless PFC fabric — on the CPU-limited 1500-byte path it\n")
	b.WriteString(" bleeds retransmissions and pays an energy premium, a finding this benchmark\n")
	b.WriteString(" makes visible.\n")
	return b.String()
}

// Cell returns the cell for (cca, mtu), or nil.
func (r *ProductionResult) Cell(name string, mtu int) *ProductionCell {
	for i := range r.Cells {
		if r.Cells[i].CCA == name && r.Cells[i].MTU == mtu {
			return &r.Cells[i]
		}
	}
	return nil
}
