package cca

import (
	"testing"

	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
)

// TestEveryAlgorithmStepsAllocFree pins the congestion-control steps the
// sender runs per ACK, per loss episode and per timeout: once an algorithm
// is warm, OnAck, OnLoss and OnRTO allocate nothing. The table ranges over
// Names(), so an algorithm registered later is covered the day it lands.
// Every ACK carries RTT, ECN, delivery-rate and round-trip samples and
// echoes two INT hops, the telemetry HPCC reads.
func TestEveryAlgorithmStepsAllocFree(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			cc := MustNew(name)
			c := newConn()
			cc.Init(c)
			hops := []netsim.INTHop{{RateBps: 20_000_000_000}, {RateBps: 10_000_000_000}}
			var n uint64
			ack := func() {
				n++
				c.now += 10 * sim.Microsecond
				c.inflight = int(cc.CWnd() / 2)
				for i := range hops {
					hops[i].QueueBytes = int(n%7) * 1500
					hops[i].TxBytes += 1500
					hops[i].At = c.now
				}
				cc.OnAck(c, AckInfo{
					AckedBytes:   c.mss,
					RTT:          sim.Duration(60+n%3*10) * sim.Microsecond,
					ECE:          n%5 == 0,
					Delivered:    n * uint64(c.mss),
					DeliveryRate: 1e9,
					RoundTrips:   n / 10,
					INT:          hops,
				})
			}
			onLoss := func() { cc.OnLoss(c) }
			onRTO := func() { cc.OnRTO(c) }
			for i := 0; i < 1000; i++ {
				ack()
			}
			onLoss()
			onRTO()
			for _, step := range []struct {
				name string
				fn   func()
			}{{"OnAck", ack}, {"OnLoss", onLoss}, {"OnRTO", onRTO}} {
				if got := testing.AllocsPerRun(100, step.fn); got != 0 {
					t.Errorf("%s.%s allocates %.2f objects per call, want 0", name, step.name, got)
				}
			}
		})
	}
}
