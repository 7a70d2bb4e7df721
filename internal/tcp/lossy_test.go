package tcp

import (
	"fmt"
	"testing"

	"greenenvy/internal/cca"
	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
)

// lossyDumbbell builds a single-sender dumbbell whose bottleneck output is
// filtered by drop: packets for which drop returns true vanish.
func lossyDumbbell(e *sim.Engine, drop func(p *netsim.Packet, nth int) bool) (*netsim.Dumbbell, *netsim.Host) {
	d := netsim.NewDumbbell(e, netsim.DumbbellConfig{
		Senders: 1, BottleneckBps: 10e9, AccessBps: 10e9, BondedSenderLinks: 2,
		LinkDelay: 5 * sim.Microsecond, SwitchDelay: sim.Microsecond,
	})
	count := 0
	tap := netsim.HandlerFunc(func(p *netsim.Packet) {
		if p.DataLen > 0 {
			count++
			if drop(p, count) {
				return
			}
		}
		d.Receiver.HandlePacket(p)
	})
	d.Switch.Connect(d.Receiver.ID, netsim.NewLink(e, "lossy", 10_000_000_000, 5*sim.Microsecond, netsim.NewDropTail(1<<20, 0), tap))
	return d, d.Receiver
}

// runLossy drives a transfer through the drop filter and asserts complete,
// correct delivery.
func runLossy(t *testing.T, name string, bytes uint64, drop func(p *netsim.Packet, nth int) bool) *Sender {
	t.Helper()
	e := sim.NewEngine()
	d, _ := lossyDumbbell(e, drop)
	cfg := DefaultConfig()
	cfg.TxPathCost = 1500 * sim.Nanosecond
	cfg.NICRateBps = 20_000_000_000
	cc := cca.MustNew(name)
	r := newReceiver(e, d.Receiver, 1, d.Senders[0].ID, cfg, cc.ECNCapable())
	s := newSender(e, d.Senders[0], 1, d.Receiver.ID, bytes, cc, cfg)
	s.Start()
	e.RunUntil(300 * sim.Second)
	if !s.Done() {
		t.Fatalf("transfer incomplete (una=%d/%d retx=%d rto=%d)", s.sndUna, bytes, s.Retransmits, s.Timeouts)
	}
	if r.TotalReceived != bytes {
		t.Fatalf("delivered %d bytes, want %d", r.TotalReceived, bytes)
	}
	return s
}

func TestSurvivesPeriodicLoss(t *testing.T) {
	for _, period := range []int{7, 50, 500} {
		period := period
		t.Run(fmt.Sprintf("every-%dth", period), func(t *testing.T) {
			s := runLossy(t, "cubic", 20<<20, func(_ *netsim.Packet, nth int) bool {
				return nth%period == 0
			})
			if s.Retransmits == 0 {
				t.Fatal("no retransmissions despite forced loss")
			}
		})
	}
}

func TestSurvivesBurstLoss(t *testing.T) {
	// Drop 8 consecutive packets every 200.
	runLossy(t, "cubic", 20<<20, func(_ *netsim.Packet, nth int) bool {
		return nth%200 < 8
	})
}

func TestSurvivesRetransmissionLoss(t *testing.T) {
	// Drop every 100th packet AND the first retransmission of anything —
	// exercises the lost-retransmission re-detection path.
	dropped := map[uint64]int{}
	runLossy(t, "cubic", 10<<20, func(p *netsim.Packet, nth int) bool {
		if p.Retransmit && dropped[p.Seq] == 1 {
			dropped[p.Seq]++
			return true
		}
		if nth%100 == 0 {
			dropped[p.Seq]++
			return true
		}
		return false
	})
}

func TestSurvivesFirstWindowLoss(t *testing.T) {
	// The entire initial window is lost before any RTT estimate exists.
	// Either the tail loss probe (5 ms pre-estimate PTO) or the initial
	// RTO must kick recovery; all ten segments get retransmitted.
	s := runLossy(t, "reno", 1<<20, func(_ *netsim.Packet, nth int) bool {
		return nth <= 10
	})
	if s.Retransmits < 10 {
		t.Fatalf("only %d retransmissions; the whole initial window was lost", s.Retransmits)
	}
	// Recovery must have been probe-or-timeout driven, not stuck.
	if s.FCT() > 100*sim.Millisecond {
		t.Fatalf("FCT = %v; first-window recovery stalled", s.FCT())
	}
}

func TestSurvivesHighRandomLossAllCCAs(t *testing.T) {
	// 5% deterministic pseudo-random loss for every algorithm. Small
	// transfers keep the slow (post-loss) algorithms cheap.
	for _, name := range cca.PaperOrder() {
		name := name
		t.Run(name, func(t *testing.T) {
			rng := sim.NewRNG(99)
			runLossy(t, name, 4<<20, func(_ *netsim.Packet, nth int) bool {
				return rng.Float64() < 0.05
			})
		})
	}
}

func TestLossyGoodputDegradesGracefully(t *testing.T) {
	clean := runLossy(t, "cubic", 20<<20, func(*netsim.Packet, int) bool { return false })
	lossy := runLossy(t, "cubic", 20<<20, func(_ *netsim.Packet, nth int) bool { return nth%100 == 0 })
	if lossy.FCT() <= clean.FCT() {
		t.Fatal("loss should cost completion time")
	}
	if float64(lossy.FCT()) > 20*float64(clean.FCT()) {
		t.Fatalf("1%% loss cost %vx FCT; recovery is pathological", float64(lossy.FCT())/float64(clean.FCT()))
	}
}

// retxLens wraps drop in a filter that records the DataLen of each data
// segment's first send, by Seq, and fails t when a retransmission carries
// another.
func retxLens(t *testing.T, drop func(p *netsim.Packet) bool) func(p *netsim.Packet, nth int) bool {
	first := map[uint64]int{}
	return func(p *netsim.Packet, _ int) bool {
		if n, ok := first[p.Seq]; !ok {
			first[p.Seq] = p.DataLen
		} else if p.Retransmit && p.DataLen != n {
			t.Errorf("retransmission of seq %d carries %d bytes, first send %d", p.Seq, p.DataLen, n)
		}
		return drop(p)
	}
}

func TestSurvivesShortFinalSegmentLoss(t *testing.T) {
	// The sender derives a segment's length from its index; the one short
	// segment must go out again with its own sequence number and length.
	const k = 40
	total := uint64(k*(9000-HeaderBytes) + 17)
	dropped, retransmitted := false, false
	runLossy(t, "cubic", total, retxLens(t, func(p *netsim.Packet) bool {
		if p.Seq != total-17 {
			return false
		}
		if p.DataLen != 17 {
			t.Errorf("final segment at seq %d carries %d bytes, want 17", p.Seq, p.DataLen)
		}
		if !dropped {
			dropped = true
			return true
		}
		retransmitted = retransmitted || p.Retransmit
		return false
	}))
	if !dropped || !retransmitted {
		t.Fatalf("short final segment dropped %v, retransmitted %v", dropped, retransmitted)
	}
}

func TestFinishedSenderRecoversLostTail(t *testing.T) {
	// Finish trims the transfer to what is in flight, mid-window; the new
	// last segment is then lost once and must be repaired at full length.
	e := sim.NewEngine()
	var tail uint64 // sndNxt at Finish
	dropped := false
	d, _ := lossyDumbbell(e, retxLens(t, func(p *netsim.Packet) bool {
		if tail == 0 || dropped || p.Retransmit || p.Seq+uint64(p.DataLen) != tail {
			return false
		}
		dropped = true
		return true
	}))
	cfg := DefaultConfig()
	cfg.TxPathCost = 1500 * sim.Nanosecond
	cc := cca.MustNew("cubic")
	r := newReceiver(e, d.Receiver, 1, d.Senders[0].ID, cfg, cc.ECNCapable())
	s := newSender(e, d.Senders[0], 1, d.Receiver.ID, 100<<20, cc, cfg)
	s.Start()
	e.At(2*sim.Millisecond, func() {
		if s.sndNxt-s.sndUna < 4*uint64(s.mss) {
			t.Errorf("only %d bytes in flight at Finish", s.sndNxt-s.sndUna)
		}
		tail = s.sndNxt
		s.Finish()
	})
	e.RunUntil(sim.Second)
	if !dropped || s.Retransmits == 0 {
		t.Fatalf("trimmed tail dropped %v, %d retransmissions", dropped, s.Retransmits)
	}
	if !s.Done() {
		t.Fatalf("transfer incomplete (una=%d/%d retx=%d rto=%d)", s.sndUna, tail, s.Retransmits, s.Timeouts)
	}
	if r.TotalReceived != tail {
		t.Fatalf("delivered %d bytes, want the %d sent before Finish", r.TotalReceived, tail)
	}
}
