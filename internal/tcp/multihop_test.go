package tcp

import (
	"testing"

	"greenenvy/internal/cca"
	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
)

// parkingLot builds a two-switch path with the SECOND hop as the
// bottleneck: sender → sw1 —10G→ sw2 —5G→ receiver. Multi-hop telemetry
// must identify the far bottleneck.
func parkingLot(e *sim.Engine) (*netsim.Host, *netsim.Host, *netsim.Link) {
	snd := netsim.NewHost(0, "sender")
	rcv := netsim.NewHost(1, "receiver")
	sw1 := netsim.NewSwitch(e, "sw1", sim.Microsecond)
	sw2 := netsim.NewSwitch(e, "sw2", sim.Microsecond)

	snd.SetEgress(netsim.NewLink(e, "uplink", 10_000_000_000, 5*sim.Microsecond, netsim.NewDropTail(0, 0), sw1))
	mid := netsim.NewLink(e, "sw1-sw2", 10_000_000_000, 5*sim.Microsecond, netsim.NewDropTail(1<<20, 0), sw2)
	sw1.Connect(rcv.ID, mid)
	bottleneck := netsim.NewLink(e, "sw2-rcv", 5_000_000_000, 5*sim.Microsecond, netsim.NewDropTail(1<<20, 0), rcv)
	sw2.Connect(rcv.ID, bottleneck)

	// Reverse path for ACKs: receiver → sw2 → sw1 → sender.
	rcv.SetEgress(netsim.NewLink(e, "rcv-up", 10_000_000_000, 5*sim.Microsecond, netsim.NewDropTail(0, 0), sw2))
	sw2.Connect(snd.ID, netsim.NewLink(e, "sw2-sw1", 10_000_000_000, 5*sim.Microsecond, netsim.NewDropTail(0, 0), sw1))
	sw1.Connect(snd.ID, netsim.NewLink(e, "sw1-snd", 10_000_000_000, 5*sim.Microsecond, netsim.NewDropTail(0, 0), snd))
	return snd, rcv, bottleneck
}

func TestMultiHopTransferAllCCAs(t *testing.T) {
	for _, name := range []string{"cubic", "bbr", "swift", "hpcc"} {
		name := name
		t.Run(name, func(t *testing.T) {
			e := sim.NewEngine()
			snd, rcv, _ := parkingLot(e)
			cfg := DefaultConfig()
			cfg.TxPathCost = 1500 * sim.Nanosecond
			cfg.NICRateBps = 10_000_000_000
			cc := cca.MustNew(name)
			newReceiver(e, rcv, 1, snd.ID, cfg, cc.ECNCapable())
			s := newSender(e, snd, 1, rcv.ID, 50<<20, cc, cfg)
			s.Start()
			e.RunUntil(60 * sim.Second)
			if !s.Done() {
				t.Fatalf("%s incomplete over two switches", name)
			}
			goodput := float64(50<<20) * 8 / s.FCT().Seconds()
			// The far 5 Gb/s hop is the limit.
			if goodput > 5.1e9 {
				t.Fatalf("goodput %.2f Gb/s exceeds the 5 Gb/s bottleneck", goodput/1e9)
			}
			if goodput < 3.0e9 {
				t.Fatalf("%s goodput %.2f Gb/s, want near the 5 Gb/s hop", name, goodput/1e9)
			}
		})
	}
}

func TestHPCCFindsFarBottleneck(t *testing.T) {
	// HPCC's max-over-hops utilization must throttle to the SECOND hop's
	// capacity with a near-empty queue there.
	e := sim.NewEngine()
	snd, rcv, bottleneck := parkingLot(e)
	cfg := DefaultConfig()
	cfg.TxPathCost = 1500 * sim.Nanosecond
	cfg.NICRateBps = 10_000_000_000
	cc := cca.MustNew("hpcc")
	newReceiver(e, rcv, 1, snd.ID, cfg, cc.ECNCapable())
	s := newSender(e, snd, 1, rcv.ID, 50<<20, cc, cfg)
	s.Start()
	e.RunUntil(60 * sim.Second)
	if !s.Done() {
		t.Fatal("hpcc incomplete")
	}
	if s.Retransmits > 10 {
		t.Fatalf("hpcc lost %d segments; telemetry should prevent overload", s.Retransmits)
	}
	if q := bottleneck.Queue().Stats().MaxBytes; q > 400<<10 {
		t.Fatalf("bottleneck queue reached %d bytes; HPCC should keep it near empty", q)
	}
	goodput := float64(50<<20) * 8 / s.FCT().Seconds()
	if goodput < 3.5e9 || goodput > 5.0e9 {
		t.Fatalf("hpcc goodput %.2f Gb/s, want ~95%% of 5 Gb/s", goodput/1e9)
	}
}
