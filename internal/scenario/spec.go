// Package scenario is the declarative experiment language: a Spec — a Go
// struct with a JSON file form — describes a topology (dumbbell or
// fat-tree with per-tier rates and delays), per-port queue discipline,
// per-flow CCA / size / schedule, background load, and sweep axes, and
// Compile turns it into a registry.Experiment that runs through exactly the
// harness the handwritten figures use.
//
// Canonicalization is the package's contract: withDefaults maps every
// spelling of the same physical experiment (omitted defaults vs explicit
// ones, any key order) to one canonical Spec, and the cache id
// of every compiled cell is derived from the SHA-256 digest of that
// canonical form's physics fields (preset, topology, flows, loads, sweep —
// not the presentation metadata). Two specs that would simulate the same
// packets share cached repetitions; any change that could alter a result
// changes the digest and therefore the cache lineage.
package scenario

import (
	"fmt"
	"sort"
	"strings"

	"greenenvy/internal/cca"
)

// Spec is the file form of one declarative experiment.
type Spec struct {
	// Name is the registry name the compiled experiment registers under.
	Name string `json:"name"`
	// Description is the one-line registry summary (a default is derived
	// from the preset when empty).
	Description string `json:"description,omitempty"`
	// Section is the paper section label (default "spec").
	Section string `json:"section,omitempty"`
	// Order positions the experiment in the registry listing.
	Order int `json:"order,omitempty"`
	// Preset selects the compiled shape: "" (run the literal Flows once per
	// repetition) or "aqm-matrix" (CCA × queue-discipline matrix on the
	// dumbbell bottleneck).
	Preset   string   `json:"preset,omitempty"`
	Topology Topology `json:"topology"`
	// Flows are the literal flows of the generic preset, installed in
	// order (order is part of the deterministic schedule).
	Flows []Flow `json:"flows,omitempty"`
	// Loads run stress background load on dumbbell sender hosts.
	Loads []Load `json:"loads,omitempty"`
	// Sweep carries the axes of the aqm-matrix preset.
	Sweep *Sweep `json:"sweep,omitempty"`
}

// Topology describes the network under test.
type Topology struct {
	// Kind is "dumbbell" or "fattree".
	Kind string `json:"kind"`

	// Senders is the dumbbell sender-host count (default 2).
	Senders int `json:"senders,omitempty"`
	// BottleneckBps is the dumbbell bottleneck rate (default 10 Gb/s).
	BottleneckBps int64 `json:"bottleneck_bps,omitempty"`
	// AccessBps is the dumbbell access-link rate (default 10 Gb/s).
	AccessBps int64 `json:"access_bps,omitempty"`
	// BondedLinks is the per-sender bonded uplink count (default 2).
	BondedLinks int `json:"bonded_links,omitempty"`
	// AccessDelaysUs optionally sets per-sender access-link delay in
	// microseconds (heterogeneous RTTs); senders beyond the slice, the
	// receiver access link, and the bottleneck use LinkDelayUs.
	AccessDelaysUs []float64 `json:"access_delays_us,omitempty"`

	// K is the fat-tree arity (even, >= 4).
	K int `json:"k,omitempty"`
	// HostBps, EdgeAggBps, AggCoreBps are the fat-tree tier rates
	// (default 10 Gb/s each).
	HostBps    int64 `json:"host_bps,omitempty"`
	EdgeAggBps int64 `json:"edge_agg_bps,omitempty"`
	AggCoreBps int64 `json:"agg_core_bps,omitempty"`

	// LinkDelayUs is the one-way propagation delay of every link in
	// microseconds (default 5).
	LinkDelayUs float64 `json:"link_delay_us,omitempty"`
	// SwitchDelayUs is the switch pipeline latency in microseconds
	// (default 1).
	SwitchDelayUs float64 `json:"switch_delay_us,omitempty"`
	// BufferBytes sizes the bottleneck/port buffers (default 1 MiB).
	BufferBytes int `json:"buffer_bytes,omitempty"`
	// MarkBytes is the DCTCP ECN threshold (0 = no marking).
	MarkBytes int `json:"mark_bytes,omitempty"`
	// Queue is the bottleneck queue discipline for the generic preset
	// (default droptail). The aqm-matrix preset sweeps its own queues and
	// requires it unset.
	Queue QueueSpec `json:"queue,omitempty"`
}

// QueueSpec selects a queue discipline and its parameters.
type QueueSpec struct {
	// Kind is "droptail", "drr", "codel", "fq-codel", or "pie".
	Kind string `json:"kind,omitempty"`
	// TargetUs is the CoDel/FQ-CoDel/PIE delay target in microseconds
	// (default 50).
	TargetUs float64 `json:"target_us,omitempty"`
	// IntervalUs is the CoDel/FQ-CoDel sliding window in microseconds
	// (default 500).
	IntervalUs float64 `json:"interval_us,omitempty"`
	// TUpdateUs is the PIE probability-update period in microseconds
	// (default 500).
	TUpdateUs float64 `json:"tupdate_us,omitempty"`
	// Quantum is the FQ-CoDel per-round deficit in bytes (default 9216).
	Quantum int `json:"quantum,omitempty"`
}

// Flow places one transfer.
type Flow struct {
	// Sender is the dumbbell sender index.
	Sender int `json:"sender,omitempty"`
	// Src and Dst are fat-tree host ids.
	Src int `json:"src,omitempty"`
	Dst int `json:"dst,omitempty"`
	// CCA names the congestion control algorithm (default cubic).
	CCA string `json:"cca,omitempty"`
	// Gbit is the transfer size in gigabits at full scale; the runner
	// multiplies it by Options.Scale exactly as the handwritten figures
	// scale their paper-sized transfers. Exactly one of Gbit and Bytes
	// must be set.
	Gbit float64 `json:"gbit,omitempty"`
	// Bytes is an absolute transfer size, exempt from Options.Scale.
	Bytes uint64 `json:"bytes,omitempty"`
	// StartMs delays the flow's start (milliseconds from run begin).
	StartMs float64 `json:"start_ms,omitempty"`
	// DurationMs, when positive, stops the transfer that long after it
	// starts (iperf3 -t); combines with the size, whichever first.
	DurationMs float64 `json:"duration_ms,omitempty"`
	// TargetBps paces the flow (iperf3 -b); 0 = unpaced.
	TargetBps int64 `json:"target_bps,omitempty"`
	// Weight, when positive, is the flow's fair-queue weight (requires a
	// DRR queue).
	Weight float64 `json:"weight,omitempty"`
	// After, when set, chains this flow's start behind the indexed flow's
	// completion (the serial schedule).
	After *int `json:"after,omitempty"`
}

// Load runs stress background load on a dumbbell sender host.
type Load struct {
	Sender   int     `json:"sender,omitempty"`
	Fraction float64 `json:"fraction"`
}

// Sweep carries the axes of the aqm-matrix preset.
type Sweep struct {
	// GbitPerFlow sizes each flow (gigabits at full scale, multiplied by
	// Options.Scale).
	GbitPerFlow float64 `json:"gbit_per_flow,omitempty"`
	// CCAs and Queues are the matrix axes.
	CCAs   []string    `json:"ccas,omitempty"`
	Queues []QueueSpec `json:"queues,omitempty"`
}

// Preset names.
const (
	PresetFlows     = ""
	PresetAQMMatrix = "aqm-matrix"
)

// Topology kinds.
const (
	KindDumbbell = "dumbbell"
	KindFatTree  = "fattree"
)

// maxHosts bounds a topology's host count (a dumbbell's senders, a
// fat-tree's k³/4 hosts) so a spec cannot ask Run for more memory than a
// machine has; maxFatTreeK is the largest arity within it (64³/4 = 65536).
// The largest registered fabric is k=18.
const (
	maxHosts    = 65536
	maxFatTreeK = 64
)

func errf(format string, args ...any) error {
	return fmt.Errorf("scenario: "+format, args...)
}

// withDefaults validates the spec and returns its canonical form: every
// optional field resolved to its default, so that any two spellings of the
// same experiment canonicalize — and digest — identically.
func (s Spec) withDefaults() (Spec, error) {
	if s.Name == "" {
		return s, errf("spec needs a name")
	}
	if s.Section == "" {
		s.Section = "spec"
	}

	if s.Preset != PresetFlows && s.Preset != PresetAQMMatrix {
		return s, errf("unknown preset %q (known: %q, and \"\" for literal flows)", s.Preset, PresetAQMMatrix)
	}

	t, err := s.Topology.withDefaults(s.Preset)
	if err != nil {
		return s, err
	}
	s.Topology = t

	switch s.Preset {
	case PresetFlows:
		if s.Sweep != nil {
			return s, errf("the literal-flows preset takes no sweep block")
		}
		if len(s.Flows) == 0 {
			return s, errf("spec %q has no flows (a literal-flows spec needs at least one)", s.Name)
		}
		// Canonicalize into a copy: the caller's spec must not be mutated.
		flows := make([]Flow, len(s.Flows))
		copy(flows, s.Flows)
		for i := range flows {
			f, err := flows[i].withDefaults(i, len(flows), s.Topology)
			if err != nil {
				return s, err
			}
			flows[i] = f
		}
		s.Flows = flows
		if s.Description == "" {
			s.Description = fmt.Sprintf("scenario spec: %d flow(s) on the %s topology", len(s.Flows), s.Topology.Kind)
		}
	case PresetAQMMatrix:
		if len(s.Flows) != 0 {
			return s, errf("preset %q generates its own flows; drop the flows block", s.Preset)
		}
		if s.Sweep == nil {
			return s, errf("preset %q needs a sweep block", s.Preset)
		}
		sw := *s.Sweep
		if err := sw.validate(); err != nil {
			return s, err
		}
		queues := make([]QueueSpec, len(sw.Queues))
		copy(queues, sw.Queues)
		for i := range queues {
			q, err := queues[i].withDefaults(true)
			if err != nil {
				return s, fmt.Errorf("%w (sweep queue %d)", err, i)
			}
			queues[i] = q
		}
		sw.Queues = queues
		s.Sweep = &sw
		if s.Description == "" {
			s.Description = "scenario spec: J/GB and Jain fairness per CCA x queue-discipline cell"
		}
	}
	for i, l := range s.Loads {
		if s.Topology.Kind != KindDumbbell {
			return s, errf("load %d: background load needs the dumbbell topology", i)
		}
		if l.Sender < 0 || l.Sender >= s.Topology.Senders {
			return s, errf("load %d: sender %d out of range (topology has %d)", i, l.Sender, s.Topology.Senders)
		}
		if l.Fraction <= 0 || l.Fraction > 1 {
			return s, errf("load %d: fraction %v outside (0, 1]", i, l.Fraction)
		}
	}
	return s, nil
}

func (t Topology) withDefaults(preset string) (Topology, error) {
	switch t.Kind {
	case KindDumbbell:
		if t.K != 0 || t.HostBps != 0 || t.EdgeAggBps != 0 || t.AggCoreBps != 0 {
			return t, errf("dumbbell topology does not take fat-tree fields (k, host_bps, edge_agg_bps, agg_core_bps)")
		}
		if t.Senders == 0 {
			t.Senders = 2
		}
		if t.Senders < 1 {
			return t, errf("dumbbell needs at least one sender, got %d", t.Senders)
		}
		if t.Senders > maxHosts {
			return t, errf("dumbbell senders %d exceeds the %d-host bound", t.Senders, maxHosts)
		}
		if t.BottleneckBps == 0 {
			t.BottleneckBps = 10_000_000_000
		}
		if t.AccessBps == 0 {
			t.AccessBps = 10_000_000_000
		}
		if t.BottleneckBps < 0 || t.AccessBps < 0 {
			return t, errf("link rates must be positive")
		}
		if t.BondedLinks == 0 {
			t.BondedLinks = 2
		}
		if len(t.AccessDelaysUs) > t.Senders {
			return t, errf("access_delays_us lists %d entries for %d senders", len(t.AccessDelaysUs), t.Senders)
		}
		for i, d := range t.AccessDelaysUs {
			if d < 0 {
				return t, errf("access_delays_us[%d] is negative", i)
			}
		}
	case KindFatTree:
		if preset == PresetAQMMatrix {
			return t, errf("preset %q needs the dumbbell topology", preset)
		}
		if t.Senders != 0 || t.BottleneckBps != 0 || t.AccessBps != 0 || t.BondedLinks != 0 || len(t.AccessDelaysUs) != 0 {
			return t, errf("fattree topology does not take dumbbell fields (senders, bottleneck_bps, access_bps, bonded_links, access_delays_us)")
		}
		if t.K < 4 || t.K%2 != 0 {
			return t, errf("fat-tree arity k must be even and >= 4, got %d", t.K)
		}
		if t.K > maxFatTreeK {
			return t, errf("fat-tree arity k=%d exceeds %d (the %d-host bound)", t.K, maxFatTreeK, maxHosts)
		}
		if t.HostBps == 0 {
			t.HostBps = 10_000_000_000
		}
		if t.EdgeAggBps == 0 {
			t.EdgeAggBps = 10_000_000_000
		}
		if t.AggCoreBps == 0 {
			t.AggCoreBps = 10_000_000_000
		}
	case "":
		return t, errf("topology needs a kind (%q or %q)", KindDumbbell, KindFatTree)
	default:
		return t, errf("unknown topology kind %q (want %q or %q)", t.Kind, KindDumbbell, KindFatTree)
	}
	if t.LinkDelayUs == 0 {
		t.LinkDelayUs = 5
	}
	if t.SwitchDelayUs == 0 {
		t.SwitchDelayUs = 1
	}
	if t.LinkDelayUs < 0 || t.SwitchDelayUs < 0 {
		return t, errf("delays must be non-negative")
	}
	if t.BufferBytes == 0 {
		t.BufferBytes = 1 << 20
	}
	if t.BufferBytes < 0 || t.MarkBytes < 0 {
		return t, errf("buffer and mark thresholds must be non-negative")
	}
	if preset != PresetFlows {
		if t.Queue != (QueueSpec{}) {
			return t, errf("preset %q owns the queue discipline; drop the topology queue block", preset)
		}
	} else {
		q, err := t.Queue.withDefaults(false)
		if err != nil {
			return t, err
		}
		t.Queue = q
	}
	return t, nil
}

// queueKinds lists the accepted disciplines.
var queueKinds = []string{"droptail", "drr", "codel", "fq-codel", "pie"}

func (q QueueSpec) withDefaults(explicit bool) (QueueSpec, error) {
	if q.Kind == "" {
		if explicit {
			return q, errf("queue needs a kind (one of %s)", strings.Join(queueKinds, ", "))
		}
		q.Kind = "droptail"
	}
	ok := false
	for _, k := range queueKinds {
		if q.Kind == k {
			ok = true
		}
	}
	if !ok {
		return q, errf("unknown queue kind %q (want one of %s)", q.Kind, strings.Join(queueKinds, ", "))
	}
	paramless := q.TargetUs == 0 && q.IntervalUs == 0 && q.TUpdateUs == 0 && q.Quantum == 0
	switch q.Kind {
	case "droptail", "drr":
		if !paramless {
			return q, errf("queue kind %q takes no AQM parameters", q.Kind)
		}
	case "codel", "fq-codel":
		if q.TUpdateUs != 0 {
			return q, errf("tupdate_us is a PIE parameter; %q uses target_us/interval_us", q.Kind)
		}
		if q.TargetUs == 0 {
			q.TargetUs = 50
		}
		if q.IntervalUs == 0 {
			q.IntervalUs = 500
		}
		if q.Kind == "fq-codel" {
			if q.Quantum == 0 {
				q.Quantum = 9216
			}
		} else if q.Quantum != 0 {
			return q, errf("quantum is an fq-codel parameter")
		}
	case "pie":
		if q.IntervalUs != 0 || q.Quantum != 0 {
			return q, errf("pie uses target_us/tupdate_us, not interval_us/quantum")
		}
		if q.TargetUs == 0 {
			q.TargetUs = 50
		}
		if q.TUpdateUs == 0 {
			q.TUpdateUs = 500
		}
	}
	if q.TargetUs < 0 || q.IntervalUs < 0 || q.TUpdateUs < 0 || q.Quantum < 0 {
		return q, errf("queue parameters must be non-negative")
	}
	return q, nil
}

func (f Flow) withDefaults(i, n int, t Topology) (Flow, error) {
	if f.CCA == "" {
		f.CCA = "cubic"
	}
	if _, err := cca.New(f.CCA); err != nil {
		return f, errf("flow %d: unknown cca %q (known: %s)", i, f.CCA, strings.Join(sortedCCANames(), ", "))
	}
	if (f.Gbit > 0) == (f.Bytes > 0) {
		return f, errf("flow %d: set exactly one of gbit (scaled by Options.Scale) and bytes (absolute)", i)
	}
	if f.Gbit < 0 || f.StartMs < 0 || f.DurationMs < 0 || f.TargetBps < 0 || f.Weight < 0 {
		return f, errf("flow %d: negative sizes, times, rates, and weights are invalid", i)
	}
	switch t.Kind {
	case KindDumbbell:
		if f.Src != 0 || f.Dst != 0 {
			return f, errf("flow %d: src/dst are fat-tree fields; dumbbell flows use sender", i)
		}
		if f.Sender < 0 || f.Sender >= t.Senders {
			return f, errf("flow %d: sender %d out of range (topology has %d)", i, f.Sender, t.Senders)
		}
	case KindFatTree:
		if f.Sender != 0 {
			return f, errf("flow %d: sender is a dumbbell field; fat-tree flows use src/dst", i)
		}
		hosts := t.K * t.K * t.K / 4
		if f.Src < 0 || f.Src >= hosts || f.Dst < 0 || f.Dst >= hosts || f.Src == f.Dst {
			return f, errf("flow %d: endpoints %d -> %d invalid for %d hosts (k=%d)", i, f.Src, f.Dst, hosts, t.K)
		}
	}
	if f.After != nil {
		a := *f.After
		if a < 0 || a >= n || a == i {
			return f, errf("flow %d: after=%d must name another flow index in [0, %d)", i, a, n)
		}
	}
	if f.Weight > 0 && t.Queue.Kind != "drr" {
		return f, errf("flow %d: weight needs the drr queue discipline (topology queue is %q)", i, t.Queue.Kind)
	}
	return f, nil
}

func (sw Sweep) validate() error {
	if len(sw.CCAs) == 0 || len(sw.Queues) == 0 {
		return errf("the aqm-matrix preset needs sweep.ccas and sweep.queues")
	}
	for i, name := range sw.CCAs {
		if _, err := cca.New(name); err != nil {
			return errf("sweep.ccas[%d]: unknown cca %q (known: %s)", i, name, strings.Join(sortedCCANames(), ", "))
		}
	}
	if sw.GbitPerFlow <= 0 {
		return errf("the aqm-matrix preset needs sweep.gbit_per_flow > 0")
	}
	return nil
}

func sortedCCANames() []string {
	names := append([]string(nil), cca.Names()...)
	sort.Strings(names)
	return names
}
