package greenenvy

import (
	"fmt"
	"strings"

	"greenenvy/internal/core"
	"greenenvy/internal/iperf"
	"greenenvy/internal/netsim"
	"greenenvy/internal/registry"
	"greenenvy/internal/sim"
	"greenenvy/internal/testbed"
)

// This file moves the Theorem 1 comparison from the paper's 2-host dumbbell
// onto a k-ary fat-tree fabric — the ROADMAP's datacenter-scale direction:
//
//   - fattree-incast: synchronized fan-in across racks into one receiver,
//     fair vs serial, swept 16 → 1024 senders. The bottleneck is the
//     receiver's edge downlink, but traffic converges through ECMP'd
//     aggregation and core tiers.
//
//   - crossrack: the Figure 1 energy-vs-fairness sweep with the shared
//     bottleneck relocated to a core link — two flows from different pods
//     whose ECMP paths collide on one core→aggregation downlink.

func init() {
	Register(Experiment{
		Name: "fattree-incast", Order: 113, Section: "§5",
		Description: "fair-vs-serial savings for cross-rack fan-in on a fat-tree fabric",
		CacheID:     "fattree-incast/",
		Run:         func(o Options) (Result, error) { return RunFatTreeIncast(o) },
	})
	Register(Experiment{
		Name: "crossrack", Order: 116, Section: "§5",
		Description: "energy vs fairness when the shared bottleneck is a fat-tree core link",
		CacheID:     "crossrack/",
		Run:         func(o Options) (Result, error) { return RunCrossRack(o) },
	})
}

// FatTreeIncastPoint is one fan-in width of the fat-tree incast sweep.
type FatTreeIncastPoint struct {
	Senders int
	// K is the tree arity used for this width (smallest fitting fabric).
	K              int
	FairJ          float64
	SerialJ        float64
	SavingsPct     float64
	AnalyticPct    float64
	FairDuration   float64
	SerialDuration float64
}

// FatTreeIncastResult sweeps synchronized cross-rack fan-in on a fat-tree.
type FatTreeIncastResult struct {
	Points []FatTreeIncastPoint
	// TotalGbit is the aggregate data moved per run (constant across
	// fan-in widths so runs are comparable).
	TotalGbit float64
}

// RunFatTreeIncast measures fair-vs-serial energy for synchronized senders
// spread across the racks of a k-ary fat-tree, all converging on one
// receiver host. Fair imposes equal weights with a DRR on the receiver's
// edge downlink; serial chains the transfers. The 1024-sender width only
// runs at Scale >= 0.25 so tiny-scale smoke runs stay cheap.
func RunFatTreeIncast(o Options) (FatTreeIncastResult, error) {
	o, err := o.WithDefaults()
	if err != nil {
		return FatTreeIncastResult{}, err
	}
	totalBytes := uint64(20 * registry.PaperGbit * o.Scale)
	res := FatTreeIncastResult{TotalGbit: float64(totalBytes) * 8 / 1e9}
	p := PaperPowerFunc()

	widths := []int{16, 64, 256}
	if o.Scale >= 0.25 {
		widths = append(widths, 1024)
	}
	const recv = netsim.NodeID(0)
	var cells []registry.Cell[testbed.RunResult]
	for _, n := range widths {
		per := totalBytes / uint64(n)
		if per == 0 {
			return FatTreeIncastResult{}, fmt.Errorf("greenenvy: scale too small for %d-way incast", n)
		}
		k := netsim.FatTreeArityFor(n)
		senders := netsim.IncastHosts(k, n)
		for _, serial := range []bool{false, true} {
			// "/sh=0" is frozen into existing cache ids (TestFatTreeCacheIDsPinned).
			id := fmt.Sprintf("fattree-incast/n=%d/k=%d/ecmp=%d/serial=%t/per=%d/sh=0", n, k, o.Seed, serial, per)
			cells = append(cells, registry.TestbedCell(id, registry.DeadlineFor(totalBytes), func(seed uint64) (*testbed.Testbed, error) {
				cfg := netsim.DefaultFatTree(k)
				cfg.ECMPSeed = o.Seed
				if !serial {
					cfg.NewQueue = func(port netsim.FatTreePort) netsim.Queue {
						if port.Tier == netsim.TierHostDown && port.Host == recv {
							return netsim.NewDRR(cfg.BufferBytes, cfg.MarkBytes)
						}
						return nil
					}
				}
				tb := testbed.NewFatTree(testbed.Options{Seed: seed}, cfg)
				tb.WatchBottleneck(tb.Fat.HostDownlink(recv))
				var prev *iperf.Client
				for _, src := range senders {
					c, err := tb.AddFlowBetween(src, recv, iperf.Spec{Bytes: per, CCA: "cubic"})
					if err != nil {
						return nil, err
					}
					if serial {
						if prev != nil {
							c.StartAfter(prev)
						}
						prev = c
					} else if err := tb.SetWeight(c.Report().Flow, 1/float64(n)); err != nil {
						return nil, err
					}
				}
				return tb, nil
			}))
		}
	}
	runs, err := registry.Run(o, cells)
	if err != nil {
		return FatTreeIncastResult{}, err
	}

	for wi, n := range widths {
		per := totalBytes / uint64(n)
		k := netsim.FatTreeArityFor(n)
		hostBps := netsim.DefaultFatTree(k).HostBps
		fair := registry.Aggregate(runs[2*wi], registry.SenderJoules, registry.RunSeconds, registry.EventsFired)
		serial := registry.Aggregate(runs[2*wi+1], registry.SenderJoules, registry.RunSeconds, registry.EventsFired)
		o.Logf("fattree-incast: n=%d serial=false %.0f events/run", n, fair[2].Mean)
		o.Logf("fattree-incast: n=%d serial=true %.0f events/run", n, serial[2].Mean)
		fairJ, serialJ := fair[0].Mean, serial[0].Mean

		// Analytic prediction: n hosts sharing the receiver downlink.
		flows := make([]core.Flow, n)
		for i := range flows {
			flows[i] = core.Flow{Bytes: float64(per)}
		}
		fairS, err := core.FairShare(flows, float64(hostBps))
		if err != nil {
			return FatTreeIncastResult{}, err
		}
		serialS, err := core.FullSpeedThenIdle(flows, float64(hostBps))
		if err != nil {
			return FatTreeIncastResult{}, err
		}
		analytic := (fairS.Energy(p) - serialS.Energy(p)) / fairS.Energy(p) * 100

		res.Points = append(res.Points, FatTreeIncastPoint{
			Senders:        n,
			K:              k,
			FairJ:          fairJ,
			SerialJ:        serialJ,
			SavingsPct:     (fairJ - serialJ) / fairJ * 100,
			AnalyticPct:    analytic,
			FairDuration:   fair[1].Mean,
			SerialDuration: serial[1].Mean,
		})
		o.Logf("fattree-incast: n=%d k=%d savings %.1f%% (analytic %.1f%%)", n, k, (fairJ-serialJ)/fairJ*100, analytic)
	}
	return res, nil
}

// Table renders the fat-tree incast sweep.
func (r FatTreeIncastResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fat-tree incast — fair vs serial energy, %.1f Gbit aggregate, cross-rack fan-in\n", r.TotalGbit)
	fmt.Fprintf(&b, "%-8s %4s %12s %12s %10s %12s\n", "senders", "k", "fair (J)", "serial (J)", "savings", "analytic")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-8d %4d %12.1f %12.1f %9.2f%% %11.2f%%\n", p.Senders, p.K, p.FairJ, p.SerialJ, p.SavingsPct, p.AnalyticPct)
	}
	b.WriteString("(Theorem 1 on a fabric: the receiver's edge downlink is the shared resource;\n")
	b.WriteString(" ECMP spreads the converging flows across aggregation and core tiers)\n")
	return b.String()
}

// CrossRackPoint is one x-position of the cross-rack fairness sweep.
type CrossRackPoint struct {
	// Fraction of the contended core link allocated to flow 1 (0.5 = fair,
	// 1.0 = full speed then idle).
	Fraction    float64
	MeanEnergyJ float64
	StdEnergyJ  float64
	// SavingsPct is energy saving over the fair point, in percent.
	SavingsPct float64
	// AnalyticSavingsPct is the closed-form prediction at the core rate.
	AnalyticSavingsPct float64
}

// CrossRackResult is the Figure 1 sweep with the bottleneck at the core.
type CrossRackResult struct {
	// K is the tree arity (4: the smallest fabric with a contended core).
	K int
	// CoreLink names the shared core→aggregation downlink.
	CoreLink string
	// Flow1 and Flow2 are the (src, dst) host pairs whose ECMP paths
	// collide on CoreLink and share no other link.
	Flow1, Flow2 [2]netsim.NodeID
	Points       []CrossRackPoint
	FairEnergyJ  float64
	// FlowGbit is the per-flow transfer size used.
	FlowGbit float64
}

// crossRackCollide finds two flows from different source pods whose ECMP
// paths share exactly one link: a core→aggregation downlink into the
// destination pod. Flow IDs are fixed (1 and 2, the testbed's assignment
// order), so the search and the runs resolve identical paths. The search is
// exhaustive over candidate endpoint pairs in a fixed order, hence
// deterministic for a given ECMP seed.
func crossRackCollide(ft *netsim.FatTree) (f1, f2 [2]netsim.NodeID, shared *netsim.Link, err error) {
	k := ft.Config.K
	hostsPerPod := (k / 2) * (k / 2)
	podHosts := func(p int) []netsim.NodeID {
		out := make([]netsim.NodeID, hostsPerPod)
		for i := range out {
			out[i] = netsim.NodeID(p*hostsPerPod + i)
		}
		return out
	}
	// Flow 1: pod 0 → pod 2; flow 2: pod 1 → pod 2. Distinct source pods
	// guarantee the upstream (host, edge→agg, agg→core) links differ; the
	// collision, when the hashes align, is exactly the core downlink.
	for _, src1 := range podHosts(0) {
		for _, dst1 := range podHosts(2) {
			path1 := ft.PathFor(1, src1, dst1)
			if len(path1) == 0 {
				continue
			}
			for _, src2 := range podHosts(1) {
				for _, dst2 := range podHosts(2) {
					if dst2 == dst1 {
						continue
					}
					path2 := ft.PathFor(2, src2, dst2)
					var common []*netsim.Link
					for _, l1 := range path1 {
						for _, l2 := range path2 {
							if l1 == l2 {
								common = append(common, l1)
							}
						}
					}
					if len(common) == 1 {
						return [2]netsim.NodeID{src1, dst1}, [2]netsim.NodeID{src2, dst2}, common[0], nil
					}
				}
			}
		}
	}
	return f1, f2, nil, fmt.Errorf("greenenvy: no cross-pod flow pair collides on exactly one core link (ECMP seed %d)", ft.Config.ECMPSeed)
}

// RunCrossRack sweeps the bandwidth fraction given to flow 1 of two
// cross-pod flows whose ECMP paths collide on one core→aggregation
// downlink — Figure 1's experiment with the shared bottleneck at the core
// of a k=4 fat-tree instead of an edge port. Fairness is imposed by DRRs on
// every core downlink (only the contended one matters); fraction 1.0 is the
// serial schedule.
func RunCrossRack(o Options) (CrossRackResult, error) {
	o, err := o.WithDefaults()
	if err != nil {
		return CrossRackResult{}, err
	}
	bytes := uint64(10 * registry.PaperGbit * o.Scale)
	if bytes == 0 {
		return CrossRackResult{}, fmt.Errorf("greenenvy: scale too small")
	}
	const k = 4
	baseCfg := netsim.DefaultFatTree(k)
	baseCfg.ECMPSeed = o.Seed

	// Discover the colliding endpoint pair on a throwaway instance; the
	// per-repetition builds re-resolve the same link by the same hashes.
	probe := netsim.NewFatTree(sim.NewEngine(), baseCfg)
	f1, f2, sharedProbe, err := crossRackCollide(probe)
	if err != nil {
		return CrossRackResult{}, err
	}
	res := CrossRackResult{
		K:        k,
		CoreLink: sharedProbe.Name(),
		Flow1:    f1,
		Flow2:    f2,
		FlowGbit: float64(bytes) * 8 / 1e9,
	}

	// Analytic predictions at the contended core link's rate.
	p := PaperPowerFunc()
	flows := []core.Flow{{Bytes: float64(bytes)}, {Bytes: float64(bytes)}}
	rate := float64(baseCfg.AggCoreBps)
	fractions := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	analytic := make(map[float64]float64)
	for _, f := range fractions {
		s, err := core.WeightedShare(flows, rate, []float64{f, 1 - f})
		if err != nil {
			return CrossRackResult{}, err
		}
		sav, err := core.SavingsOverFair(s, rate, p)
		if err != nil {
			return CrossRackResult{}, err
		}
		analytic[f] = sav * 100
	}

	deadline := registry.DeadlineFor(2 * bytes)
	cells := make([]registry.Cell[testbed.RunResult], len(fractions))
	for i, f := range fractions {
		// "/sh=0" is frozen into existing cache ids (TestFatTreeCacheIDsPinned).
		id := fmt.Sprintf("crossrack/k=%d/ecmp=%d/frac=%.2f/bytes=%d/sh=0", k, o.Seed, f, bytes)
		cells[i] = registry.TestbedCell(id, deadline, func(seed uint64) (*testbed.Testbed, error) {
			cfg := baseCfg
			if f < 1.0 {
				cfg.NewQueue = func(port netsim.FatTreePort) netsim.Queue {
					if port.Tier == netsim.TierCoreDown {
						return netsim.NewDRR(cfg.BufferBytes, cfg.MarkBytes)
					}
					return nil
				}
			}
			tb := testbed.NewFatTree(testbed.Options{Seed: seed}, cfg)
			c1, err := tb.AddFlowBetween(f1[0], f1[1], iperf.Spec{Bytes: bytes, CCA: "cubic"})
			if err != nil {
				return nil, err
			}
			c2, err := tb.AddFlowBetween(f2[0], f2[1], iperf.Spec{Bytes: bytes, CCA: "cubic"})
			if err != nil {
				return nil, err
			}
			_, _, shared, err := crossRackCollide(tb.Fat)
			if err != nil {
				return nil, err
			}
			tb.WatchBottleneck(shared)
			if f < 1.0 {
				if err := tb.SetWeight(c1.Report().Flow, f); err != nil {
					return nil, err
				}
				if err := tb.SetWeight(c2.Report().Flow, 1-f); err != nil {
					return nil, err
				}
			} else {
				c2.StartAfter(c1)
			}
			return tb, nil
		})
	}
	runs, err := registry.Run(o, cells)
	if err != nil {
		return CrossRackResult{}, err
	}
	for i, f := range fractions {
		aggs := registry.Aggregate(runs[i], registry.SenderJoules, registry.EventsFired)
		res.Points = append(res.Points, CrossRackPoint{
			Fraction:           f,
			MeanEnergyJ:        aggs[0].Mean,
			StdEnergyJ:         aggs[0].Std,
			AnalyticSavingsPct: analytic[f],
		})
		o.Logf("crossrack: f=%.2f energy=%.1f±%.1f J (%.0f events/run)", f, aggs[0].Mean, aggs[0].Std, aggs[1].Mean)
	}

	res.FairEnergyJ = res.Points[0].MeanEnergyJ
	for i := range res.Points {
		res.Points[i].SavingsPct = (res.FairEnergyJ - res.Points[i].MeanEnergyJ) / res.FairEnergyJ * 100
	}
	return res, nil
}

// Table renders the cross-rack sweep.
func (r CrossRackResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cross-rack (k=%d fat-tree) — energy vs fairness at shared core link %s (%.1f Gbit/flow)\n",
		r.K, r.CoreLink, r.FlowGbit)
	fmt.Fprintf(&b, "flow 1: h%d -> h%d   flow 2: h%d -> h%d\n", r.Flow1[0], r.Flow1[1], r.Flow2[0], r.Flow2[1])
	fmt.Fprintf(&b, "%-10s %14s %12s %14s\n", "fraction", "energy (J)", "savings %", "analytic %")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-10.2f %8.1f ±%4.1f %12.2f %14.2f\n",
			p.Fraction, p.MeanEnergyJ, p.StdEnergyJ, p.SavingsPct, p.AnalyticSavingsPct)
	}
	b.WriteString("(the fair split stays worst when the contended resource is a core link:\n")
	b.WriteString(" Theorem 1 only needs a shared bottleneck and concave host power)\n")
	return b.String()
}
