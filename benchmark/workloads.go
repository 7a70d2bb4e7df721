package main

import "greenenvy"

// expRun is one registered experiment a workload's child runs, with the
// Options it runs under (Seed and CacheDir are filled per child).
type expRun struct {
	Name string
	Opts greenenvy.Options
	// Golden is the sha256 of the experiment's rendered table at seed 1;
	// empty skips the check.
	Golden string
}

// workload is one named input set of the benchmark.
type workload struct {
	Name string
	Why  string
	Exps []expRun
	// Replay children re-run Exps against cache directories a cold child of
	// the same run filled, so they decode results instead of simulating.
	Replay bool
}

// Every child runs its experiments the way `greenbench -reps 3 -workers 2`
// does: the default repetition count, one worker per core of the 2-CPU
// machine the bounds were measured on.
func opts(scale float64) greenenvy.Options {
	return greenenvy.Options{Reps: 3, Scale: scale, Workers: 2}
}

var (
	sweepExp = expRun{Name: "fig5", Opts: opts(0.0005),
		Golden: "0ed065fbafdd0d3717bf979f4cc98cbf11d17836828ee43b04cecd55cf760fd9"}
	incastExp = expRun{Name: "fattree-incast", Opts: opts(0.05),
		Golden: "43208f19f3db0137d1486cc690e3fc703590857ccd6009fa7997d1e525faccec"}
	streamExp = expRun{Name: "workload-scale", Opts: opts(0.005),
		Golden: "314d7d01abeb626cdcc122923ad0b6af94466977a4b3ce24b98ed90af182cfd7"}
)

// workloads lists the benchmark's workloads in the order BENCHMARK.json
// declares them. The three cold ones stress disjoint layers; replay
// bypasses the simulator entirely and is the control for every
// simulator-layer change (prediction: unchanged).
var workloads = []workload{
	{
		Name: "sweep",
		Why:  "fig5 CCA x MTU sweep, 120 single-flow dumbbell runs: per-packet tcp/cca/link/energy cost dominates, no fabric build or churn",
		Exps: []expRun{sweepExp},
	},
	{
		Name: "incast",
		Why:  "fattree-incast fan-in 16-256 on k<=12 fat-trees: range-route+ECMP forwarding, DRR, drops and recovery, fabric construction",
		Exps: []expRun{incastExp},
	},
	{
		Name: "stream",
		Why:  "workload-scale streaming replay, 5k mice flows per run: per-flow lifecycle, client pooling, admission and P2 sketches",
		Exps: []expRun{streamExp},
	},
	{
		Name:   "replay",
		Why:    "the three above re-read from a warm on-disk cache: cache decode and table rendering only, the control for simulator changes",
		Exps:   []expRun{sweepExp, incastExp, streamExp},
		Replay: true,
	},
}

// lookupWorkload resolves a workload by name.
func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// workloadNames lists the workload names in declaration order.
func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}
