package testbed

import (
	"fmt"

	"greenenvy/internal/iperf"
	"greenenvy/internal/sim"
)

// This file is Run's counterpart for the sharded fat-tree (Options.Shards >
// 0): the same measurement protocol — bracket every host's RAPL counter,
// start the flows, sample energy every SyncEvery, collect at the last
// completion instant — restated so that no step reads state owned by
// another partition while the run is in flight.
//
// Three things change shape:
//
//   - Sampling is per shard. Each partition engine runs its own sampler
//     over the meters it owns, and the sampler retires itself the moment
//     its shard is quiet (every local sender done, every local receiver in
//     possession of its full transfer). Quiet hosts draw constant idle
//     power, which integrates exactly over any interval, so stopping early
//     loses nothing — and it guarantees every meter's last sync point lies
//     at or before the global completion instant, where the final
//     measurement happens.
//
//   - Chained starts (StartAfter) cross the cut through control conduits.
//     A predecessor completing on shard p hands the successor's start
//     closure to conduit p→q, which delivers it under the same lookahead
//     discipline as any packet; the successor pays one link delay of extra
//     latency relative to the monolithic schedule, identically for every
//     worker count.
//
//   - Collection happens on the main goroutine after the group quiesces.
//     The completion instant is the latest sender CompletedAt; every
//     meter is integrated exactly to that instant with EndAt, and
//     measurement noise is drawn in the same sender-then-receiver order as
//     the monolithic path so the draw sequence stays a function of the
//     testbed's construction order alone.
func (tb *Testbed) runSharded(deadline sim.Duration) (RunResult, error) {
	for _, s := range tb.Sensors {
		tb.measures = append(tb.measures, s.Begin())
	}

	// Route cross-shard chained starts through the control conduits.
	idxOf := make(map[*iperf.Client]int, len(tb.clients))
	for i, c := range tb.clients {
		idxOf[c] = i
	}
	for i, c := range tb.clients {
		prev := c.ChainedAfter()
		if prev == nil {
			continue
		}
		ps, ok := 0, false
		if pi, found := idxOf[prev]; found {
			ps, ok = tb.clientSrcShard[pi], true
		}
		if !ok {
			return RunResult{}, fmt.Errorf("testbed: flow %d chained after a client not added to this testbed", i)
		}
		if cs := tb.clientSrcShard[i]; ps != cs {
			relay := tb.ctrl[ps][cs]
			c.SetStartRelay(func(fire func()) { relay.SendAfterDelay(fire) })
		}
	}
	for _, c := range tb.clients {
		c.Start()
	}

	// One self-retiring sampler per shard that owns meters.
	P := tb.group.Shards()
	meterIdx := make([][]int, P)
	for i, s := range tb.meterShard {
		meterIdx[s] = append(meterIdx[s], i)
	}
	senders := make([][]*iperf.Client, P)
	receivers := make([][]*iperf.Client, P)
	for i, c := range tb.clients {
		senders[tb.clientSrcShard[i]] = append(senders[tb.clientSrcShard[i]], c)
		receivers[tb.clientDstShard[i]] = append(receivers[tb.clientDstShard[i]], c)
	}
	for s := 0; s < P; s++ {
		if len(meterIdx[s]) == 0 {
			continue
		}
		s := s
		eng := tb.group.Engine(s)
		quiet := func() bool {
			for _, c := range senders[s] {
				if !c.Done() {
					return false
				}
			}
			for _, c := range receivers[s] {
				if c.Receiver().TotalReceived < c.TransferBytes() {
					return false
				}
			}
			return true
		}
		var sample func()
		sample = func() {
			// The quiet check must precede the sync: once the shard is
			// quiet, syncing again could push a meter's integration point
			// past the global completion instant, and EndAt cannot
			// integrate backwards.
			if quiet() {
				return
			}
			for _, i := range meterIdx[s] {
				tb.Meters[i].Sync()
			}
			if eng.Now() < sim.Time(deadline) {
				eng.After(tb.opts.SyncEvery, sample)
			}
		}
		eng.After(tb.opts.SyncEvery, sample)
	}

	tb.group.Run(sim.Time(deadline), tb.opts.Shards)

	if !tb.allDone() {
		return RunResult{}, fmt.Errorf("testbed: flows incomplete at deadline %v", deadline)
	}

	// The measurement window closes at the last flow completion, exactly
	// as the paper's scripts bracket each iperf3 run.
	var done sim.Time
	for _, c := range tb.clients {
		if t := c.Sender().CompletedAt; t > done {
			done = t
		}
	}
	noise := func() float64 { return 1 + tb.rng.Normal(0, tb.opts.MeasureNoise) }
	res := RunResult{Duration: done}
	for _, i := range tb.senderIdx {
		j := tb.measures[i].EndAt(done) * noise()
		res.SenderEnergyJ = append(res.SenderEnergyJ, j)
		res.TotalSenderJ += j
	}
	for _, i := range tb.recvIdx {
		res.ReceiverEnergyJ += tb.measures[i].EndAt(done) * noise()
	}
	for _, c := range tb.clients {
		res.Reports = append(res.Reports, c.Report())
		res.Retransmits += c.Sender().Retransmits
	}
	if s := res.Duration.Seconds(); s > 0 {
		res.AvgSenderPowerW = res.TotalSenderJ / s
	}
	if tb.watch != nil {
		res.BottleneckStats = tb.watch.Queue().Stats()
	}
	for _, sw := range tb.switches {
		res.NoRouteDrops += sw.DroppedNoRoute
	}
	res.EventsFired = tb.group.Fired()
	return res, nil
}

// allDone reports whether every flow has completed.
func (tb *Testbed) allDone() bool {
	for _, c := range tb.clients {
		if !c.Done() {
			return false
		}
	}
	return true
}
