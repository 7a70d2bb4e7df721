package greenenvy

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"greenenvy/internal/cca"
	"greenenvy/internal/iperf"
	"greenenvy/internal/registry"
	"greenenvy/internal/stats"
	"greenenvy/internal/tcp"
	"greenenvy/internal/testbed"
)

// paperTransferBytes is §4.3's transfer size: 50 GB per run.
const paperTransferBytes = 50_000_000_000

func init() {
	Register(Experiment{
		Name: "fig5", Aliases: []string{"5"}, Order: 50, Section: "§4.3",
		Description: "energy to transmit 50 GB per CCA × MTU (shared sweep)",
		CacheID:     "sweep",
		Run:         func(o Options) (Result, error) { return RunFig5(o) },
	})
	Register(Experiment{
		Name: "fig6", Aliases: []string{"6"}, Order: 60, Section: "§4.3",
		Description: "average sender power per CCA × MTU (shared sweep)",
		CacheID:     "sweep",
		Run:         func(o Options) (Result, error) { return RunFig6(o) },
	})
	Register(Experiment{
		Name: "fig7", Aliases: []string{"7"}, Order: 70, Section: "§4.3",
		Description: "energy vs flow completion time scatter (shared sweep)",
		CacheID:     "sweep",
		Run:         func(o Options) (Result, error) { return RunFig7(o) },
	})
	Register(Experiment{
		Name: "fig8", Aliases: []string{"8"}, Order: 80, Section: "§4.3",
		Description: "energy vs retransmissions scatter (shared sweep)",
		CacheID:     "sweep",
		Run:         func(o Options) (Result, error) { return RunFig8(o) },
	})
}

// SweepMTUs are the paper's §4.4 MTU steps.
var SweepMTUs = []int{1500, 3000, 6000, 9000}

// SweepCell aggregates the repetitions of one (CCA, MTU) scenario.
type SweepCell struct {
	CCA string
	MTU int
	// Per-repetition raw measurements.
	EnergyJ []float64
	FCTSecs []float64
	PowerW  []float64
	Retx    []float64
}

// MeanEnergyJ returns the cell's mean energy.
func (c SweepCell) MeanEnergyJ() float64 { return stats.Mean(c.EnergyJ) }

// MeanFCT returns the cell's mean flow completion time.
func (c SweepCell) MeanFCT() float64 { return stats.Mean(c.FCTSecs) }

// MeanPowerW returns the cell's mean average power.
func (c SweepCell) MeanPowerW() float64 { return stats.Mean(c.PowerW) }

// MeanRetx returns the cell's mean retransmission count.
func (c SweepCell) MeanRetx() float64 { return stats.Mean(c.Retx) }

// SweepResult is the shared dataset behind Figures 5–8: every CCA × MTU
// cell with energy, completion time, power, and retransmissions.
type SweepResult struct {
	Cells []SweepCell
	// Bytes is the per-run transfer size actually used.
	Bytes uint64
	// ScaleToPaper converts measured energy to the paper's 50 GB scale
	// (steady-state energy is linear in bytes moved).
	ScaleToPaper float64
}

// Cell returns the cell for (cca, mtu), or nil.
func (r *SweepResult) Cell(ccaName string, mtu int) *SweepCell {
	for i := range r.Cells {
		if r.Cells[i].CCA == ccaName && r.Cells[i].MTU == mtu {
			return &r.Cells[i]
		}
	}
	return nil
}

// sweepEntry is one singleflight slot of the sweep cache: the first caller
// for a key runs the sweep inside the sync.Once; concurrent callers with the
// same key block on the Once and share the one computation.
type sweepEntry struct {
	once sync.Once
	res  *SweepResult
	err  error
}

var (
	sweepMu    sync.Mutex
	sweepCache = map[string]*sweepEntry{}
)

// sweepKey is the in-memory sweep cache key. It must contain every
// result-affecting Options field and nothing else: Workers only changes
// wall-clock time, Verbose only logging, and CacheDir only where results
// are persisted — a sweep computed without a cache directory is
// byte-identical to one computed with it. TestSweepKeyAuditsOptionsFields
// enforces this classification for every current and future field.
func sweepKey(o Options) string {
	return fmt.Sprintf("%d/%v/%d", o.Reps, o.Scale, o.Seed)
}

// RunCCASweep runs (or returns the cached) 10-CCA × 4-MTU × Reps sweep:
// one flow per run transferring Scale×50 GB, measuring sender energy, FCT,
// average power, and retransmissions. Figures 5, 6, 7, and 8 are all views
// over this dataset, exactly as in the paper.
//
// Results are cached in-process per sweepKey; Workers does not enter the key
// because the result is byte-identical for every worker count. Concurrent
// callers with the same key share a single computation (the first caller's
// Workers wins); a failed computation is evicted so a later call can retry.
// With Options.CacheDir set, each (CCA, MTU, repetition) run is additionally
// memoized on disk, so a fresh process replays a warm sweep without
// simulating anything.
func RunCCASweep(o Options) (*SweepResult, error) {
	o, err := o.WithDefaults()
	if err != nil {
		return nil, err
	}
	key := sweepKey(o)
	sweepMu.Lock()
	e, ok := sweepCache[key]
	if !ok {
		e = &sweepEntry{}
		sweepCache[key] = e
	}
	sweepMu.Unlock()

	e.once.Do(func() { e.res, e.err = runCCASweep(o) })
	if e.err != nil {
		sweepMu.Lock()
		if sweepCache[key] == e {
			delete(sweepCache, key)
		}
		sweepMu.Unlock()
	}
	return e.res, e.err
}

// runCCASweep executes the sweep itself: every (CCA, MTU, repetition) task
// runs on one registry.Run pool, and the cells come back in
// cca.PaperOrder() × SweepMTUs order.
func runCCASweep(o Options) (*SweepResult, error) {
	bytes := uint64(float64(paperTransferBytes) * o.Scale)
	res := &SweepResult{Bytes: bytes, ScaleToPaper: float64(paperTransferBytes) / float64(bytes)}

	deadline := registry.DeadlineFor(bytes) * 4
	var cells []registry.Cell[testbed.RunResult]
	for _, name := range cca.PaperOrder() {
		for _, mtu := range SweepMTUs {
			cells = append(cells, registry.Cell[testbed.RunResult]{
				// An int MTU and uint64 bytes: NewKey tags parts by
				// type, and cached sweep repetitions use this shape.
				Key: []any{"sweep", name, mtu, bytes},
				Run: func(seed uint64) (testbed.RunResult, error) {
					tb := testbed.New(testbed.Options{Seed: seed})
					if _, err := tb.AddFlow(0, iperf.Spec{
						Bytes:  bytes,
						CCA:    name,
						Config: tcp.Config{MTU: mtu},
					}); err != nil {
						return testbed.RunResult{}, err
					}
					return tb.Run(deadline)
				},
			})
		}
	}
	runs, err := registry.Run(o, cells)
	if err != nil {
		return nil, err
	}

	for i, name := range cca.PaperOrder() {
		for j, mtu := range SweepMTUs {
			cell := cellFromRuns(name, mtu, runs[i*len(SweepMTUs)+j])
			o.Logf("sweep: %-9s mtu %-5d energy %s J  fct %s s  retx %s",
				name, mtu, stats.Summary(cell.EnergyJ), stats.Summary(cell.FCTSecs), stats.Summary(cell.Retx))
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// cellFromRuns assembles the per-repetition measurement vectors of one
// (CCA, MTU) cell from single-flow runs. The CCA sweep (Figures 5–8) and
// the production benchmark share this shape.
func cellFromRuns(ccaName string, mtu int, runs []testbed.RunResult) SweepCell {
	cell := SweepCell{CCA: ccaName, MTU: mtu}
	for _, r := range runs {
		e := r.SenderEnergyJ[0]
		cell.EnergyJ = append(cell.EnergyJ, e)
		cell.FCTSecs = append(cell.FCTSecs, r.Duration.Seconds())
		cell.PowerW = append(cell.PowerW, e/r.Duration.Seconds())
		cell.Retx = append(cell.Retx, float64(r.Retransmits))
	}
	return cell
}

// --- Figure 5: total energy per CCA × MTU ---

// Fig5Result is Figure 5 plus the §4.3/§4.4 headline ratios.
type Fig5Result struct {
	Sweep *SweepResult
	// BaselinePremiumPct is, per MTU, how much more energy the baseline
	// uses than the mean of the real CCAs excluding BBR2 (paper:
	// 8.2–14.2 %... phrased as CCAs consuming that much less).
	BaselinePremiumPct map[int]float64
	// BBR2OverBBRPct is the energy gap between the BBR versions at MTU
	// 1500 (paper: ~40 %).
	BBR2OverBBRPct float64
	// MTUSavingsPct is, per CCA, the energy saving going from MTU 1500
	// to 9000 (paper: 13.4–31.9 %).
	MTUSavingsPct map[string]float64
}

// RunFig5 derives Figure 5 from the sweep.
func RunFig5(o Options) (Fig5Result, error) {
	sw, err := RunCCASweep(o)
	if err != nil {
		return Fig5Result{}, err
	}
	res := Fig5Result{Sweep: sw, BaselinePremiumPct: map[int]float64{}, MTUSavingsPct: map[string]float64{}}
	for _, mtu := range SweepMTUs {
		var others []float64
		for _, name := range cca.PaperOrder() {
			if name == "baseline" || name == "bbr2" {
				continue
			}
			others = append(others, sw.Cell(name, mtu).MeanEnergyJ())
		}
		base := sw.Cell("baseline", mtu).MeanEnergyJ()
		res.BaselinePremiumPct[mtu] = (base - stats.Mean(others)) / base * 100
	}
	b1 := sw.Cell("bbr", 1500).MeanEnergyJ()
	b2 := sw.Cell("bbr2", 1500).MeanEnergyJ()
	res.BBR2OverBBRPct = (b2 - b1) / b1 * 100
	for _, name := range cca.PaperOrder() {
		e1500 := sw.Cell(name, 1500).MeanEnergyJ()
		e9000 := sw.Cell(name, 9000).MeanEnergyJ()
		res.MTUSavingsPct[name] = (e1500 - e9000) / e1500 * 100
	}
	return res, nil
}

// Table renders Figure 5 (energy in kJ, extrapolated to the paper's 50 GB).
func (r Fig5Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 — energy to transmit 50 GB (kJ, extrapolated ×%.0f from %.1f GB runs)\n",
		r.Sweep.ScaleToPaper, float64(r.Sweep.Bytes)/1e9)
	fmt.Fprintf(&b, "%-10s", "cca")
	for _, mtu := range SweepMTUs {
		fmt.Fprintf(&b, " %11d", mtu)
	}
	fmt.Fprintf(&b, " %14s\n", "1500→9000")
	for _, name := range cca.PaperOrder() {
		fmt.Fprintf(&b, "%-10s", name)
		for _, mtu := range SweepMTUs {
			c := r.Sweep.Cell(name, mtu)
			fmt.Fprintf(&b, " %11.3f", c.MeanEnergyJ()*r.Sweep.ScaleToPaper/1000)
		}
		fmt.Fprintf(&b, " %13.1f%%\n", r.MTUSavingsPct[name])
	}
	var mtus []int
	for m := range r.BaselinePremiumPct {
		mtus = append(mtus, m)
	}
	sort.Ints(mtus)
	b.WriteString("baseline premium over real CCAs (paper: CCAs use 8.2–14.2% less):")
	for _, m := range mtus {
		fmt.Fprintf(&b, "  mtu%d %.1f%%", m, r.BaselinePremiumPct[m])
	}
	fmt.Fprintf(&b, "\nbbr2 over bbr at MTU 1500: %.1f%% (paper: ~40%%)\n", r.BBR2OverBBRPct)
	return b.String()
}

// --- Figure 6: average power per CCA × MTU ---

// Fig6Result is Figure 6 plus the §4.3 energy/power correlation.
type Fig6Result struct {
	Sweep *SweepResult
	// EnergyPowerCorr is corr(total energy, average power) across all
	// CCA cells at MTU 1500 (paper: ≈ −0.8).
	EnergyPowerCorr float64
	// SpreadPct is the max/min power gap across CCAs at MTU 1500
	// (paper: ~14 %).
	SpreadPct float64
}

// RunFig6 derives Figure 6 from the sweep.
func RunFig6(o Options) (Fig6Result, error) {
	sw, err := RunCCASweep(o)
	if err != nil {
		return Fig6Result{}, err
	}
	res := Fig6Result{Sweep: sw}
	var es, ps []float64
	for _, name := range cca.PaperOrder() {
		c := sw.Cell(name, 1500)
		es = append(es, c.MeanEnergyJ())
		ps = append(ps, c.MeanPowerW())
	}
	res.EnergyPowerCorr = stats.Pearson(es, ps)
	res.SpreadPct = (stats.Max(ps) - stats.Min(ps)) / stats.Min(ps) * 100
	return res, nil
}

// Table renders Figure 6.
func (r Fig6Result) Table() string {
	var b strings.Builder
	b.WriteString("Figure 6 — average sender power transmitting 50 GB (W)\n")
	fmt.Fprintf(&b, "%-10s", "cca")
	for _, mtu := range SweepMTUs {
		fmt.Fprintf(&b, " %9d", mtu)
	}
	b.WriteString("\n")
	for _, name := range cca.PaperOrder() {
		fmt.Fprintf(&b, "%-10s", name)
		for _, mtu := range SweepMTUs {
			fmt.Fprintf(&b, " %9.2f", r.Sweep.Cell(name, mtu).MeanPowerW())
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "corr(energy, power) across CCAs at MTU 1500: %.2f (paper: ~-0.8)\n", r.EnergyPowerCorr)
	fmt.Fprintf(&b, "power spread across CCAs at MTU 1500: %.1f%% (paper: ~14%%)\n", r.SpreadPct)
	return b.String()
}

// --- Figure 7: energy vs FCT scatter ---

// Fig7Result is the energy-vs-completion-time scatter.
type Fig7Result struct {
	Sweep *SweepResult
	// Corr is corr(FCT, energy) across every repetition of every cell
	// (paper: strong positive; visible as the diagonal of Fig 7).
	Corr float64
	// ClusterFCT/ClusterEnergy give the centroid of the MTU-1500 cluster
	// and of the large-MTU cluster (paper: two clusters in the inset).
	Cluster1500FCT    float64
	Cluster1500Energy float64
	ClusterBigFCT     float64
	ClusterBigEnergy  float64
}

// RunFig7 derives Figure 7 from the sweep.
func RunFig7(o Options) (Fig7Result, error) {
	sw, err := RunCCASweep(o)
	if err != nil {
		return Fig7Result{}, err
	}
	res := Fig7Result{Sweep: sw}
	var fcts, es []float64
	var f15, e15, fbig, ebig []float64
	for _, c := range sw.Cells {
		for i := range c.EnergyJ {
			fcts = append(fcts, c.FCTSecs[i])
			es = append(es, c.EnergyJ[i])
			if c.MTU == 1500 {
				f15 = append(f15, c.FCTSecs[i])
				e15 = append(e15, c.EnergyJ[i])
			} else {
				fbig = append(fbig, c.FCTSecs[i])
				ebig = append(ebig, c.EnergyJ[i])
			}
		}
	}
	res.Corr = stats.Pearson(fcts, es)
	res.Cluster1500FCT = stats.Mean(f15)
	res.Cluster1500Energy = stats.Mean(e15)
	res.ClusterBigFCT = stats.Mean(fbig)
	res.ClusterBigEnergy = stats.Mean(ebig)
	return res, nil
}

// Table renders the Figure 7 scatter points (extrapolated to 50 GB).
func (r Fig7Result) Table() string {
	var b strings.Builder
	b.WriteString("Figure 7 — energy vs flow completion time (per run, extrapolated to 50 GB)\n")
	fmt.Fprintf(&b, "%-10s %6s %12s %12s\n", "cca", "mtu", "fct (s)", "energy (kJ)")
	for _, c := range r.Sweep.Cells {
		for i := range c.EnergyJ {
			fmt.Fprintf(&b, "%-10s %6d %12.2f %12.3f\n", c.CCA, c.MTU,
				c.FCTSecs[i]*r.Sweep.ScaleToPaper, c.EnergyJ[i]*r.Sweep.ScaleToPaper/1000)
		}
	}
	fmt.Fprintf(&b, "corr(fct, energy) = %.2f (paper: strongly positive)\n", r.Corr)
	fmt.Fprintf(&b, "clusters: mtu1500 (%.1f s, %.2f kJ scaled) vs large MTU (%.1f s, %.2f kJ scaled)\n",
		r.Cluster1500FCT*r.Sweep.ScaleToPaper, r.Cluster1500Energy*r.Sweep.ScaleToPaper/1000,
		r.ClusterBigFCT*r.Sweep.ScaleToPaper, r.ClusterBigEnergy*r.Sweep.ScaleToPaper/1000)
	return b.String()
}

// --- Figure 8: energy vs retransmissions scatter ---

// Fig8Result is the energy-vs-retransmissions scatter.
type Fig8Result struct {
	Sweep *SweepResult
	// CorrExclBBR2 is corr(retransmissions, energy) excluding the highly
	// variable BBR2 cells, as the paper computes it (paper: 0.47). In
	// this reproduction the statistic is diluted by the MTU axis: the
	// per-packet CPU cost drives MTU-1500 energy up while, unlike on the
	// paper's hardware, the adaptive CCAs lose little at 1500 (see
	// EXPERIMENTS.md).
	CorrExclBBR2 float64
	// WithinMTUCorr is the mean Pearson correlation computed within each
	// MTU (excluding BBR2) — the loss→energy relationship with the MTU
	// axis controlled for.
	WithinMTUCorr float64
	// BaselineHasMostRetx reports whether the constant-cwnd baseline has
	// the highest mean retransmission count aggregated across MTUs. (At
	// MTU 1500 the CPU-limited sender cannot congest the bottleneck, so
	// per-MTU dominance is not guaranteed there — see EXPERIMENTS.md.)
	BaselineHasMostRetx bool
}

// RunFig8 derives Figure 8 from the sweep.
func RunFig8(o Options) (Fig8Result, error) {
	sw, err := RunCCASweep(o)
	if err != nil {
		return Fig8Result{}, err
	}
	res := Fig8Result{Sweep: sw, BaselineHasMostRetx: true}
	var rx, es []float64
	for _, c := range sw.Cells {
		if c.CCA == "bbr2" {
			continue
		}
		for i := range c.EnergyJ {
			rx = append(rx, c.Retx[i])
			es = append(es, c.EnergyJ[i])
		}
	}
	res.CorrExclBBR2 = stats.Pearson(rx, es)
	var perMTU []float64
	for _, mtu := range SweepMTUs {
		var mrx, mes []float64
		for _, c := range sw.Cells {
			if c.CCA == "bbr2" || c.MTU != mtu {
				continue
			}
			for i := range c.EnergyJ {
				mrx = append(mrx, c.Retx[i])
				mes = append(mes, c.EnergyJ[i])
			}
		}
		if r := stats.Pearson(mrx, mes); !math.IsNaN(r) {
			perMTU = append(perMTU, r)
		}
	}
	res.WithinMTUCorr = stats.Mean(perMTU)
	aggRetx := func(name string) float64 {
		total := 0.0
		for _, mtu := range SweepMTUs {
			total += sw.Cell(name, mtu).MeanRetx()
		}
		return total
	}
	base := aggRetx("baseline")
	for _, name := range cca.PaperOrder() {
		if name != "baseline" && aggRetx(name) >= base {
			res.BaselineHasMostRetx = false
		}
	}
	return res, nil
}

// Table renders Figure 8.
func (r Fig8Result) Table() string {
	var b strings.Builder
	b.WriteString("Figure 8 — energy vs retransmissions (mean per cell)\n")
	fmt.Fprintf(&b, "%-10s %6s %14s %12s\n", "cca", "mtu", "retx (pkts)", "energy (kJ)")
	for _, c := range r.Sweep.Cells {
		fmt.Fprintf(&b, "%-10s %6d %14.0f %12.3f\n", c.CCA, c.MTU, c.MeanRetx(), c.MeanEnergyJ()*r.Sweep.ScaleToPaper/1000)
	}
	fmt.Fprintf(&b, "corr(retx, energy) excluding bbr2 = %.2f (paper: 0.47); within-MTU = %.2f\n", r.CorrExclBBR2, r.WithinMTUCorr)
	fmt.Fprintf(&b, "baseline has the most retransmissions aggregated across MTUs: %v (paper: yes)\n", r.BaselineHasMostRetx)
	return b.String()
}
