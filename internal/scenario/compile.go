package scenario

import (
	"greenenvy/internal/netsim"
	"greenenvy/internal/registry"
	"greenenvy/internal/sim"
)

// Compile turns a spec into a registry.Experiment. The spec is
// canonicalized first (defaults resolved, invalid specs rejected with the
// failing field), and every persistent-cache id the compiled runner uses is
// namespaced under CachePrefix plus the canonical spec's digest — so two
// specs describing the same physics share cached repetitions, and any
// result-affecting edit moves the experiment to a fresh cache lineage.
//
// Compile does not register: the caller (the root package's
// RegisterScenario/RegisterScenarioFile, or a test) decides whether the
// experiment joins the global registry.
func Compile(spec Spec) (registry.Experiment, error) {
	c, err := spec.Canonical()
	if err != nil {
		return registry.Experiment{}, err
	}
	prefix, err := c.CacheID()
	if err != nil {
		return registry.Experiment{}, err
	}
	run := runFlows(c, prefix)
	if c.Preset == PresetAQMMatrix {
		run = runAQMMatrix(c, prefix)
	}
	return registry.Experiment{
		Name:        c.Name,
		Description: c.Description,
		Section:     c.Section,
		Order:       c.Order,
		CacheID:     CachePrefix,
		Run:         run,
	}, nil
}

// usToDur converts microseconds (the spec's delay unit) to sim time.
func usToDur(us float64) sim.Duration {
	return sim.Duration(us * float64(sim.Microsecond))
}

// dumbbellConfig maps a canonical dumbbell topology onto the netsim config.
// With the spec defaults it reproduces netsim.DefaultDumbbell field for
// field, which the byte-identity tests depend on.
func dumbbellConfig(t Topology) netsim.DumbbellConfig {
	cfg := netsim.DumbbellConfig{
		Senders:           t.Senders,
		BottleneckBps:     t.BottleneckBps,
		AccessBps:         t.AccessBps,
		BondedSenderLinks: t.BondedLinks,
		LinkDelay:         usToDur(t.LinkDelayUs),
		SwitchDelay:       usToDur(t.SwitchDelayUs),
		BufferBytes:       t.BufferBytes,
		MarkBytes:         t.MarkBytes,
	}
	for _, d := range t.AccessDelaysUs {
		cfg.AccessDelays = append(cfg.AccessDelays, usToDur(d))
	}
	return cfg
}

// fatTreeConfig maps a canonical fat-tree topology onto the netsim config.
// With the spec defaults it reproduces netsim.DefaultFatTree(t.K).
func fatTreeConfig(t Topology) netsim.FatTreeConfig {
	return netsim.FatTreeConfig{
		K:           t.K,
		HostBps:     t.HostBps,
		EdgeAggBps:  t.EdgeAggBps,
		AggCoreBps:  t.AggCoreBps,
		LinkDelay:   usToDur(t.LinkDelayUs),
		SwitchDelay: usToDur(t.SwitchDelayUs),
		BufferBytes: t.BufferBytes,
		MarkBytes:   t.MarkBytes,
	}
}

// buildQueue constructs one run's queue discipline from a canonical
// QueueSpec. "droptail" returns nil — the topology's default drop-tail,
// byte-identical to not configuring a queue at all. rateBps is the drain
// rate PIE's controller converts backlog to delay with; seed derives PIE's
// private dither RNG so repetitions stay deterministic.
func buildQueue(q QueueSpec, bufBytes, markBytes int, rateBps int64, seed uint64) netsim.Queue {
	switch q.Kind {
	case "drr":
		return netsim.NewDRR(bufBytes, markBytes)
	case "codel":
		return netsim.NewCoDel(bufBytes, usToDur(q.TargetUs), usToDur(q.IntervalUs))
	case "fq-codel":
		return netsim.NewFQCoDel(bufBytes, q.Quantum, usToDur(q.TargetUs), usToDur(q.IntervalUs))
	case "pie":
		return netsim.NewPIE(bufBytes, rateBps, usToDur(q.TargetUs), usToDur(q.TUpdateUs),
			sim.NewRNG(seed).Split(0x71E).Uint64())
	default:
		return nil
	}
}
