package tcp

import (
	"testing"

	"greenenvy/internal/cca"
	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
)

// TestDebugTrace is a development aid: run with -run TestDebugTrace -v to
// dump the sender's evolution. It makes no assertions.
func TestDebugTrace(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("trace only under -v")
	}
	e := sim.NewEngine()
	d := netsim.NewDumbbell(e, netsim.DefaultDumbbell(1))
	cfg := DefaultConfig()
	cfg.TxPathCost = 1500 * sim.Nanosecond
	cc := cca.MustNew("cubic")
	newReceiver(e, d.Receiver, 1, d.Senders[0].ID, cfg, false)
	s := newSender(e, d.Senders[0], 1, d.Receiver.ID, 20<<20, cc, cfg)
	for i := 0; i <= 200; i++ {
		e.At(sim.Time(i)*100*sim.Microsecond, func() {
			t.Logf("t=%v cwnd=%.0f pipe=%d una=%d nxt=%d retxQ=%d recov=%v rto=%d retx=%d srtt=%v qlen=%d",
				e.Now(), s.cc.CWnd(), s.pipe, s.sndUna, s.sndNxt, s.retxQueue.len(), s.recovery, s.Timeouts, s.Retransmits, s.rtt.srtt, d.Bottleneck.Queue().Bytes())
		})
	}
	s.Start()
	e.RunUntil(20 * sim.Millisecond)
	t.Logf("done=%v", s.Done())
}
