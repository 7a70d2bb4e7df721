package tcp

import (
	"testing"

	"greenenvy/internal/cca"
	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
)

// maxQueueDuring runs one 100 MB flow of the named CCA and returns the
// bottleneck queue's high-water mark in bytes.
func maxQueueDuring(t *testing.T, name string) int {
	t.Helper()
	e := sim.NewEngine()
	d := netsim.NewDumbbell(e, netsim.DefaultDumbbell(1))
	cfg := DefaultConfig()
	cfg.TxPathCost = 1500 * sim.Nanosecond
	cfg.NICRateBps = 20_000_000_000
	cc := cca.MustNew(name)
	newReceiver(e, d.Receiver, 1, d.Senders[0].ID, cfg, cc.ECNCapable())
	s := newSender(e, d.Senders[0], 1, d.Receiver.ID, 100<<20, cc, cfg)
	s.Start()
	e.RunUntil(60 * sim.Second)
	if !s.Done() {
		t.Fatalf("%s transfer incomplete", name)
	}
	return d.Bottleneck.Queue().Stats().MaxBytes
}

func TestVegasKeepsQueueShorterThanCubic(t *testing.T) {
	vegas := maxQueueDuring(t, "vegas")
	cubic := maxQueueDuring(t, "cubic")
	if vegas >= cubic {
		t.Fatalf("vegas max queue %d >= cubic %d; delay-based CCA should queue less", vegas, cubic)
	}
}

func TestBBRKeepsQueueShort(t *testing.T) {
	bbr := maxQueueDuring(t, "bbr")
	cubic := maxQueueDuring(t, "cubic")
	if bbr >= cubic/2 {
		t.Fatalf("bbr max queue %d vs cubic %d; pacing should nearly empty the buffer", bbr, cubic)
	}
}

func TestBaselineFillsBuffer(t *testing.T) {
	base := maxQueueDuring(t, "baseline")
	// The constant 25 MB window must slam the 1 MiB buffer to its cap.
	if base < 900<<10 {
		t.Fatalf("baseline max queue = %d, want near the 1 MiB cap", base)
	}
}

func TestFCTOrderingAcrossCCAs(t *testing.T) {
	// The energy story of Figures 5/7 rests on completion times: the
	// well-tuned CCAs finish a bulk transfer at (near) line rate, bbr2
	// trails far behind, and the baseline pays for its losses.
	fct := func(name string) sim.Duration {
		e := sim.NewEngine()
		d := netsim.NewDumbbell(e, netsim.DefaultDumbbell(1))
		cfg := DefaultConfig()
		cfg.TxPathCost = 1500 * sim.Nanosecond
		cfg.NICRateBps = 20_000_000_000
		cc := cca.MustNew(name)
		newReceiver(e, d.Receiver, 1, d.Senders[0].ID, cfg, cc.ECNCapable())
		s := newSender(e, d.Senders[0], 1, d.Receiver.ID, 200<<20, cc, cfg)
		s.Start()
		e.RunUntil(120 * sim.Second)
		if !s.Done() {
			t.Fatalf("%s incomplete", name)
		}
		return s.FCT()
	}
	cubic := fct("cubic")
	bbr := fct("bbr")
	bbr2 := fct("bbr2")
	if float64(bbr2) < 1.2*float64(bbr) {
		t.Errorf("bbr2 FCT %v should trail bbr %v by a wide margin", bbr2, bbr)
	}
	if float64(cubic) > 1.3*float64(bbr) {
		t.Errorf("cubic FCT %v and bbr %v should be comparable", cubic, bbr)
	}
}
