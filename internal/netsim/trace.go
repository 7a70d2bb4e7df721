package netsim

import (
	"sort"

	"greenenvy/internal/sim"
)

// ThroughputSample is one point of a per-flow throughput time series.
type ThroughputSample struct {
	At   sim.Time
	Bps  float64
	Flow FlowID
}

// ThroughputMonitor samples per-flow delivered bytes at a fixed interval and
// turns the deltas into a throughput time series — the instrumentation
// behind the paper's Figure 3 traces.
type ThroughputMonitor struct {
	engine   *sim.Engine
	interval sim.Duration
	ticker   sim.Timer[ThroughputMonitor]
	counts   map[FlowID]uint64
	last     map[FlowID]uint64
	series   map[FlowID][]ThroughputSample
	stopped  bool
}

// NewThroughputMonitor creates a monitor sampling every interval. Call
// Observe from the measurement point (typically a tcp.Receiver's OnData
// hook), then Start.
func NewThroughputMonitor(engine *sim.Engine, interval sim.Duration) *ThroughputMonitor {
	if interval <= 0 {
		panic("netsim: monitor interval must be positive")
	}
	m := &ThroughputMonitor{
		engine:   engine,
		interval: interval,
		counts:   make(map[FlowID]uint64),
		last:     make(map[FlowID]uint64),
		series:   make(map[FlowID][]ThroughputSample),
	}
	m.ticker.Init(engine, m, (*ThroughputMonitor).tick)
	return m
}

// Observe records payload bytes delivered for a flow.
func (m *ThroughputMonitor) Observe(flow FlowID, payloadBytes int) {
	m.counts[flow] += uint64(payloadBytes)
}

// Start begins periodic sampling.
func (m *ThroughputMonitor) Start() { m.ticker.Reset(m.interval) }

// Stop ends sampling after the current interval.
func (m *ThroughputMonitor) Stop() { m.stopped = true }

func (m *ThroughputMonitor) tick() {
	if m.stopped {
		return
	}
	now := m.engine.Now()
	for flow, total := range m.counts {
		delta := total - m.last[flow]
		m.last[flow] = total
		bps := float64(delta) * 8 / m.interval.Seconds()
		m.series[flow] = append(m.series[flow], ThroughputSample{At: now, Bps: bps, Flow: flow})
	}
	m.ticker.Reset(m.interval)
}

// Series returns the sampled throughput series for a flow.
func (m *ThroughputMonitor) Series(flow FlowID) []ThroughputSample { return m.series[flow] }

// Flows lists flows with at least one observation.
func (m *ThroughputMonitor) Flows() []FlowID {
	ids := make([]FlowID, 0, len(m.series))
	for id := range m.series {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
