package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"greenenvy/internal/cache"
	"greenenvy/internal/netsim"
	"greenenvy/internal/registry"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's own files around the call into the layer. Start and End are
// nanoseconds since the tracer started; Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// countingQueue counts the calls a link makes into its queue discipline.
type countingQueue struct {
	netsim.Queue
	enqueues, dequeues, drops uint64
}

// Enqueue implements netsim.Queue.
func (q *countingQueue) Enqueue(p *netsim.Packet) bool {
	q.enqueues++
	ok := q.Queue.Enqueue(p)
	if !ok {
		q.drops++
	}
	return ok
}

// Dequeue implements netsim.Queue.
func (q *countingQueue) Dequeue() *netsim.Packet {
	q.dequeues++
	return q.Queue.Dequeue()
}

// tracer keeps a traced cell's spans and counters in memory. A nil tracer
// records nothing, so one build path serves traced and untraced cells.
type tracer struct {
	epoch             time.Time
	spans             []span
	queues            []*countingQueue
	dataPkts, ackPkts uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Since(t.epoch).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.epoch).Nanoseconds()
}

// wrap returns q behind a counting wrapper. Only drop-tail queues are
// wrapped: the testbed type-asserts DRRs, and AQMs bind to the engine.
func (t *tracer) wrap(q netsim.Queue) netsim.Queue {
	cq := &countingQueue{Queue: q}
	t.queues = append(t.queues, cq)
	return cq
}

// observe counts the data and ACK packets every host sends through the
// hosts' OnSend hook, which nothing else in the simulator uses.
func (t *tracer) observe(hosts []*netsim.Host) {
	if t == nil {
		return
	}
	for _, h := range hosts {
		h.OnSend = t.countSend
	}
}

func (t *tracer) countSend(p *netsim.Packet) {
	if p.DataLen > 0 {
		t.dataPkts++
	} else {
		t.ackPkts++
	}
}

// total sums the spans with the given name: how many, and their time.
func (t *tracer) total(name string) (calls uint64, ns int64) {
	for _, s := range t.spans {
		if s.Name == name {
			calls++
			ns += s.End - s.Start
		}
	}
	return calls, ns
}

// tracedDefs are the per-layer metrics of a traced run that do not come
// from an isolated body: the traced cell, the cache round trip of its
// result, untraced end-to-end children and the sharded-engine cell.
var tracedDefs = []metricDef{
	{Name: "cache.put_us", Unit: "us", Better: "lower"},
	{Name: "cache.put_allocs", Unit: "allocs/op", Better: "lower"},
	{Name: "cache.get_us", Unit: "us", Better: "lower"},
	{Name: "cache.get_allocs", Unit: "allocs/op", Better: "lower"},
	{Name: "cache.entry_kb", Unit: "KB", Better: "lower"},
	{Name: "testbed.build_ms", Unit: "ms", Better: "lower"},
	{Name: "testbed.run_ms", Unit: "ms", Better: "lower"},
	{Name: "testbed.ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "testbed.mallocs_per_pkt", Unit: "allocs/pkt", Better: "lower"},
	{Name: "sim.events_per_pkt", Unit: "events/pkt", Better: "lower"},
	{Name: "netsim.queue_ops_per_pkt", Unit: "ops/pkt", Better: "lower"},
	{Name: "tcp.retx_per_kpkt", Unit: "retx/kpkt", Better: "lower"},
	{Name: "netsim.drop_ratio", Unit: "ratio", Better: "lower"},
	{Name: "testbed.ns_per_flow", Unit: "ns/flow", Better: "lower"},
	{Name: "testbed.mallocs_per_flow", Unit: "allocs/flow", Better: "lower"},
	{Name: "testbed.pool_reuse_ratio", Unit: "ratio", Better: "higher"},
	{Name: "workload.next_share", Unit: "ratio", Better: "lower"},
	{Name: "ledger.coverage", Unit: "ratio", Better: "higher"},
	{Name: "ledger.unattributed_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "registry.parallelism", Unit: "ratio", Better: "higher"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "sim.shard_slowdown", Unit: "ratio", Better: "lower"},
}

// perLayer lists every per-layer metric a traced run reports. An isolated
// body's time and allocations per call are both better lower.
func perLayer() []metricDef {
	var defs []metricDef
	for _, ib := range isolatedBenches() {
		defs = append(defs,
			metricDef{Name: ib.name, Unit: ib.unit, Better: "lower"},
			metricDef{Name: ib.allocs, Unit: ib.allocUnit, Better: "lower"})
	}
	return append(defs, tracedDefs...)
}

// ledger attributes a traced cell's run time to layers: each term is an
// isolated cost per call (raw, ns) times the calls the cell made. The
// transfer body covers TCP, CCA, the first link hop and their events per
// packet a host sends; every switch forwarding step adds one switch lookup
// and one more link hop; meters cost one account pair per host packet and
// one sync per meter per 1 ms sampling interval; the fair queue costs its
// surplus over drop-tail per enqueue; the streaming driver adds a client
// reset per reused flow, a generator pull per flow and a sketch update per
// completion. The terms are in ns per forwarding step.
func ledger(raw map[string]float64, k counts) map[string]float64 {
	pkts := float64(k.pkts)
	hostPkts := float64(k.dataPkts + k.ackPkts)
	dataShare := float64(k.dataPkts) / hostPkts
	sw := raw["netsim.switch_ecmp_ns"]
	if k.dumbbell {
		sw = raw["netsim.switch_exact_ns"]
	}
	syncs := float64(k.meters) * k.simSeconds * 1000
	return map[string]float64{
		"tcp":    hostPkts * raw["tcp.transfer_ns_per_pkt"] / pkts,
		"energy": (hostPkts*raw["energy.account_ns"] + syncs*raw["energy.sync_ns"]) / pkts,
		"link":   dataShare*raw["netsim.link_data_ns"] + (1-dataShare)*raw["netsim.link_ack_ns"],
		"switch": sw,
		"drr":    float64(k.drrEnqueues+k.drrDrops) * max(0, raw["netsim.drr_ns"]-raw["netsim.droptail_ns"]) / pkts,
		"stream": (float64(k.poolReuses)*raw["iperf.client_reset_ns"] +
			float64(k.nextCalls)*raw["workload.next_ns"] +
			float64(k.flows)*raw["stats.sketch_add_ns"]) / pkts,
	}
}

// traceFile is what a traced run writes next to its result: the spans, the
// cell's counters and the ledger terms.
type traceFile struct {
	Workload       string             `json:"workload"`
	Seed           uint64             `json:"seed"`
	Spans          []span             `json:"spans"`
	Counters       map[string]uint64  `json:"counters"`
	LedgerNsPerPkt map[string]float64 `json:"ledger_ns_per_pkt"`
}

// cellRuns is how many times a traced run builds its cell each way, and how
// many end-to-end children it times.
const cellRuns = 3

// runTrace measures the per-layer metrics for workload w: the isolated
// bodies, the workload's cell untraced and traced cellRuns times each (the
// two must agree byte for byte), a cache round trip of the cell's result,
// cellRuns untraced end-to-end children and the sharded-engine cell.
func runTrace(ctx context.Context, env runEnv, w workload, seed uint64, seconds float64) (runResult, error) {
	var t tally
	units := map[string]string{}
	for _, d := range perLayer() {
		units[d.Name] = d.Unit
	}
	m := map[string]metricValue{}
	set := func(name string, v float64) { m[name] = metricValue{Value: v, Unit: units[name]} }

	benchtime := min(max(time.Duration(seconds*float64(time.Second)/100), 10*time.Millisecond), 250*time.Millisecond)
	raw, err := runIsolated(benchtime, m)
	if err != nil {
		return runResult{}, err
	}

	// Untraced and traced builds alternate so machine drift hits both; the
	// times are medians, the counters those of the last traced run.
	c := cellFor(w, seed)
	var plain, traced cellOutcome
	var tr *tracer
	var plainNs, tracedNs []float64
	var identity error
	for i := 0; i < cellRuns; i++ {
		if plain, err = runCell(c, nil); err != nil {
			return runResult{}, fmt.Errorf("%s cell: %w", c.kind, err)
		}
		tr = newTracer()
		if traced, err = runCell(c, tr); err != nil {
			return runResult{}, fmt.Errorf("traced %s cell: %w", c.kind, err)
		}
		if !bytes.Equal(plain.encoded, traced.encoded) {
			identity = fmt.Errorf("%s cell: the traced result differs from the untraced one; trace rejected", c.kind)
		}
		plainNs = append(plainNs, float64(plain.runNs))
		tracedNs = append(tracedNs, float64(traced.runNs))
	}
	t.note(identity)
	plain.runNs, traced.runNs = int64(median(plainNs)), int64(median(tracedNs))

	k := traced.counts
	pkts, flows := float64(k.pkts), float64(k.flows)
	set("testbed.build_ms", float64(plain.buildNs)/1e6)
	set("testbed.run_ms", float64(plain.runNs)/1e6)
	set("testbed.ns_per_pkt", float64(plain.runNs)/pkts)
	set("testbed.mallocs_per_pkt", float64(plain.mallocs)/pkts)
	set("sim.events_per_pkt", float64(k.events)/pkts)
	set("netsim.queue_ops_per_pkt", float64(k.queueOps)/pkts)
	set("tcp.retx_per_kpkt", float64(k.retx)*1000/pkts)
	set("netsim.drop_ratio", float64(k.drops+k.drrDrops)/float64(k.enqueues+k.drrEnqueues+k.drrDrops))
	set("testbed.ns_per_flow", float64(plain.runNs)/flows)
	set("testbed.mallocs_per_flow", float64(plain.mallocs)/flows)
	set("testbed.pool_reuse_ratio", float64(k.poolReuses)/flows)
	_, runNs := tr.total("testbed.run")
	set("workload.next_share", float64(k.nextNs)/float64(runNs))
	terms := ledger(raw, k)
	attributed := 0.0
	for _, v := range terms {
		attributed += v
	}
	set("ledger.coverage", attributed*pkts/float64(plain.runNs))
	set("ledger.unattributed_ns_per_pkt", float64(plain.runNs)/pkts-attributed)
	set("trace.overhead_pct", float64(traced.runNs-plain.runNs)/float64(plain.runNs)*100)

	if err := cacheRoundTrip(env.work, w.Name, plain, set); err != nil {
		return runResult{}, err
	}

	par, rss, err := endToEndChildren(ctx, env, w, seed, &t)
	if err != nil {
		return runResult{}, err
	}
	set("registry.parallelism", par)
	set("proc.peak_rss_mb", rss)

	slow, err := shardSlowdown(seed)
	if err != nil {
		return runResult{}, err
	}
	set("sim.shard_slowdown", slow)

	for _, d := range perLayer() {
		if _, ok := m[d.Name]; !ok {
			return runResult{}, fmt.Errorf("per-layer metric %s not measured", d.Name)
		}
	}
	if err := writeTrace(env.traceDir, traceFile{
		Workload: w.Name, Seed: seed, Spans: tr.spans, LedgerNsPerPkt: terms,
		Counters: map[string]uint64{
			"switch_pkts": k.pkts, "host_data_pkts": k.dataPkts, "host_ack_pkts": k.ackPkts,
			"events": k.events, "retransmits": k.retx, "queue_ops": k.queueOps,
			"enqueues": k.enqueues, "drops": k.drops, "drr_enqueues": k.drrEnqueues, "drr_drops": k.drrDrops,
			"flows": k.flows, "pool_reuses": k.poolReuses, "next_calls": k.nextCalls,
		},
	}); err != nil {
		return runResult{}, err
	}
	return runResult{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// cacheRoundTrip stores and loads a cell's result through a fresh cache
// store, the persistent layer every cold child writes and replay reads.
func cacheRoundTrip(work, name string, o cellOutcome, set func(string, float64)) error {
	const ops = 16
	dir, err := os.MkdirTemp(work, "trace-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := cache.Open(dir, registry.VersionStamp())
	if err != nil {
		return err
	}
	var ms runtime.MemStats
	allocs := func() uint64 { runtime.ReadMemStats(&ms); return ms.Mallocs }
	var putNs, getNs []float64
	a0 := allocs()
	for i := 0; i < ops; i++ {
		start := time.Now()
		if err := store.Put(cache.NewKey("benchmark", name, i), o.result); err != nil {
			return err
		}
		putNs = append(putNs, float64(time.Since(start).Nanoseconds()))
	}
	a1 := allocs()
	for i := 0; i < ops; i++ {
		out := reflect.New(reflect.TypeOf(o.result))
		start := time.Now()
		if !store.Get(cache.NewKey("benchmark", name, i), out.Interface()) {
			return fmt.Errorf("cache: entry %d written and missed", i)
		}
		getNs = append(getNs, float64(time.Since(start).Nanoseconds()))
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(out.Elem().Interface()); err != nil {
			return err
		}
		if !bytes.Equal(buf.Bytes(), o.encoded) {
			return fmt.Errorf("cache: entry %d read back different bytes", i)
		}
	}
	a2 := allocs()
	set("cache.put_us", median(putNs)/1e3)
	set("cache.get_us", median(getNs)/1e3)
	set("cache.put_allocs", float64(a1-a0)/ops)
	set("cache.get_allocs", float64(a2-a1)/ops) // includes the re-encode check
	set("cache.entry_kb", float64(store.Stats().BytesWritten)/ops/1024)
	return nil
}

// endToEndChildren runs cellRuns untraced end-to-end children of w and
// returns the median CPU-to-wall ratio and the peak RSS among them.
func endToEndChildren(ctx context.Context, env runEnv, w workload, seed uint64, t *tally) (parallelism, rssMB float64, err error) {
	ss, err := children(ctx, env, w, seed, cellRuns, time.Time{}, t)
	if err != nil || len(ss) == 0 {
		return 0, 0, err
	}
	ratios := make([]float64, len(ss))
	for i, s := range ss {
		ratios[i] = s.cpuS / s.wallS
		rssMB = max(rssMB, s.rssMB)
	}
	return median(ratios), rssMB, nil
}

// shardSlowdown times a 64-to-1 incast cell (fattree-incast's fair cell at
// scale 0.05) on the sharded engine with two partition workers against the
// monolithic engine, median of three each, alternating.
func shardSlowdown(seed uint64) (float64, error) {
	mono := cell{kind: "incast", seed: seed, scale: 0.05, fanIn: 64}
	sharded := mono
	sharded.shards = 2
	var m, s []float64
	for i := 0; i < 3; i++ {
		for _, c := range []cell{mono, sharded} {
			o, err := runCell(c, nil)
			if err != nil {
				return 0, fmt.Errorf("shard cell (shards=%d): %w", c.shards, err)
			}
			if c.shards == 0 {
				m = append(m, float64(o.runNs))
			} else {
				s = append(s, float64(o.runNs))
			}
		}
	}
	return median(s) / median(m), nil
}

func writeTrace(dir string, f traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	enc, err := json.Marshal(f)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", f.Workload, f.Seed))
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchmark: wrote %s (%d spans)\n", path, len(f.Spans))
	return nil
}
