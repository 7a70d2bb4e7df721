package tcp

import (
	"testing"

	"greenenvy/internal/cca"
	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
)

// TestDebugBaseline traces the constant-cwnd baseline under sustained
// overload. Run with -v; makes no assertions.
func TestDebugBaseline(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("trace only under -v")
	}
	e := sim.NewEngine()
	d := netsim.NewDumbbell(e, netsim.DefaultDumbbell(1))
	cfg := DefaultConfig()
	cfg.MTU = 6000
	cfg.TxPathCost = 1500 * sim.Nanosecond
	cfg.NICRateBps = 20_000_000_000
	cc := cca.MustNew("baseline")
	r := newReceiver(e, d.Receiver, 1, d.Senders[0].ID, cfg, false)
	s := newSender(e, d.Senders[0], 1, d.Receiver.ID, 200<<20, cc, cfg)
	for i := 1; i <= 40; i++ {
		e.At(sim.Time(i)*100*sim.Millisecond, func() {
			t.Logf("t=%v una=%dMB nxt=%dMB pipe=%.1fMB retxQ=%d retx=%d rto=%d rcvd=%dMB dup=%d acksSent=%d oooHW=%d",
				e.Now(), s.sndUna>>20, s.sndNxt>>20, float64(s.pipe)/(1<<20), s.retxQueue.len(), s.Retransmits, s.Timeouts,
				r.TotalReceived>>20, r.DupSegments, r.AcksSent, r.OutOfOrderHigh)
		})
	}
	s.Start()
	e.RunUntil(4 * sim.Second)
	t.Logf("done=%v at %v", s.Done(), e.Now())
}
