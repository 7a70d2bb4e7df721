package tcp

import (
	"testing"

	"greenenvy/internal/cca"
	"greenenvy/internal/energy"
	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
)

// newSender initializes a sender that reports to no energy meter.
func newSender(e *sim.Engine, host *netsim.Host, flow netsim.FlowID, dst netsim.NodeID, totalBytes uint64, cc cca.CongestionControl, cfg Config) *Sender {
	s := new(Sender)
	s.Init(e, host, flow, dst, totalBytes, cc, cfg, energy.Account{})
	return s
}

// newReceiver initializes a receiver that reports to no energy meter.
func newReceiver(e *sim.Engine, host *netsim.Host, flow netsim.FlowID, src netsim.NodeID, cfg Config, preciseCE bool) *Receiver {
	r := new(Receiver)
	r.Init(e, host, flow, src, cfg, preciseCE, energy.Account{})
	return r
}

// runTransfer drives one bulk transfer over a fresh dumbbell and returns
// the sender and receiver for inspection.
func runTransfer(t *testing.T, ccName string, bytes uint64, cfg Config, mutate func(*netsim.DumbbellConfig)) (*Sender, *Receiver) {
	t.Helper()
	e := sim.NewEngine()
	dcfg := netsim.DefaultDumbbell(1)
	if cfg.MTU > 0 {
		// Mark at DCTCP K for ECN tests only when asked via mutate.
	}
	if mutate != nil {
		mutate(&dcfg)
	}
	d := netsim.NewDumbbell(e, dcfg)
	cc := cca.MustNew(ccName)
	if cfg.TxPathCost == 0 {
		cfg.TxPathCost = 1500 * sim.Nanosecond
	}
	recv := newReceiver(e, d.Receiver, 1, d.Senders[0].ID, cfg, cc.ECNCapable())
	snd := newSender(e, d.Senders[0], 1, d.Receiver.ID, bytes, cc, cfg)
	snd.Start()
	e.RunUntil(120 * sim.Second)
	if !snd.Done() {
		t.Fatalf("%s transfer of %d bytes did not complete (una=%d/%d retx=%d rto=%d pipe=%d)",
			ccName, bytes, snd.sndUna, bytes, snd.Retransmits, snd.Timeouts, snd.pipe)
	}
	if recv.TotalReceived != bytes {
		t.Fatalf("receiver got %d bytes, want %d", recv.TotalReceived, bytes)
	}
	return snd, recv
}

func TestBulkTransferCompletesAllCCAs(t *testing.T) {
	for _, name := range cca.PaperOrder() {
		name := name
		t.Run(name, func(t *testing.T) {
			snd, _ := runTransfer(t, name, 50<<20, DefaultConfig(), nil)
			if snd.FCT() <= 0 {
				t.Fatalf("non-positive FCT %v", snd.FCT())
			}
		})
	}
}

func TestGoodputNearLineRateMTU9000(t *testing.T) {
	// 100 MB at 10 Gb/s with MSS 8940 should finish near the wire-rate
	// bound: 100e6*9000/8940 bytes on the wire ≈ 80.5 ms + slow start.
	snd, _ := runTransfer(t, "cubic", 100<<20, DefaultConfig(), nil)
	goodput := float64(100<<20) * 8 / snd.FCT().Seconds()
	if goodput < 8.5e9 {
		t.Fatalf("cubic goodput = %.2f Gb/s, want > 8.5", goodput/1e9)
	}
}

func TestMTU1500IsCPULimited(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MTU = 1500
	snd, _ := runTransfer(t, "cubic", 100<<20, cfg, nil)
	goodput := float64(100<<20) * 8 / snd.FCT().Seconds()
	// TxPathCost 1.5 µs caps wire rate at ~8 Gb/s; goodput below that.
	if goodput > 8.0e9 {
		t.Fatalf("MTU 1500 goodput = %.2f Gb/s, want CPU-limited < 8", goodput/1e9)
	}
	if goodput < 4.0e9 {
		t.Fatalf("MTU 1500 goodput = %.2f Gb/s, unexpectedly slow", goodput/1e9)
	}
}

func TestRateLimitedSender(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RateLimitBps = 2_000_000_000
	snd, _ := runTransfer(t, "cubic", 50<<20, cfg, nil)
	goodput := float64(50<<20) * 8 / snd.FCT().Seconds()
	if goodput > 2.1e9 {
		t.Fatalf("rate-limited goodput = %.2f Gb/s, want <= 2", goodput/1e9)
	}
	if goodput < 1.7e9 {
		t.Fatalf("rate-limited goodput = %.2f Gb/s, want ~2", goodput/1e9)
	}
}

func TestLossRecoveryWithTinyBuffer(t *testing.T) {
	// An 64 KB bottleneck buffer forces drops; the transfer must still
	// complete via SACK recovery, with retransmissions recorded.
	snd, _ := runTransfer(t, "cubic", 50<<20, DefaultConfig(), func(d *netsim.DumbbellConfig) {
		d.BufferBytes = 64 << 10
	})
	if snd.Retransmits == 0 {
		t.Fatal("expected retransmissions with a tiny buffer")
	}
}

func TestBaselineRetransmitsHeavily(t *testing.T) {
	// The constant-cwnd baseline overruns the 1 MiB buffer and must see
	// far more retransmissions than CUBIC (paper Fig 8).
	base, _ := runTransfer(t, "baseline", 50<<20, DefaultConfig(), nil)
	cub, _ := runTransfer(t, "cubic", 50<<20, DefaultConfig(), nil)
	if base.Retransmits <= cub.Retransmits*10 {
		t.Fatalf("baseline retx = %d, cubic retx = %d: baseline should dominate", base.Retransmits, cub.Retransmits)
	}
}

func TestDCTCPKeepsQueueShortNoLoss(t *testing.T) {
	var bottleneck *netsim.Link
	snd, _ := runTransfer(t, "dctcp", 50<<20, DefaultConfig(), func(d *netsim.DumbbellConfig) {
		d.MarkBytes = 90 << 10 // DCTCP K
	})
	_ = bottleneck
	if snd.Retransmits != 0 {
		t.Fatalf("DCTCP with ECN marking should not lose packets, got %d retx", snd.Retransmits)
	}
}

func TestVegasNoLossCleanPath(t *testing.T) {
	snd, _ := runTransfer(t, "vegas", 50<<20, DefaultConfig(), nil)
	if snd.Retransmits != 0 {
		t.Fatalf("vegas on a clean path should not retransmit, got %d", snd.Retransmits)
	}
}

func TestBBR2SlowerThanBBR(t *testing.T) {
	// The alpha's conservatism must cost throughput (paper §4.3: 40%
	// energy difference driven by longer completion).
	b1, _ := runTransfer(t, "bbr", 100<<20, DefaultConfig(), nil)
	b2, _ := runTransfer(t, "bbr2", 100<<20, DefaultConfig(), nil)
	if b2.FCT() <= b1.FCT() {
		t.Fatalf("bbr2 FCT %v should exceed bbr FCT %v", b2.FCT(), b1.FCT())
	}
}

func TestShortTransferSingleSegment(t *testing.T) {
	snd, recv := runTransfer(t, "reno", 100, DefaultConfig(), nil)
	if snd.DataSent != 1 {
		t.Fatalf("sent %d packets for 100 bytes, want 1", snd.DataSent)
	}
	if recv.SegmentsRecvd != 1 {
		t.Fatalf("received %d segments, want 1", recv.SegmentsRecvd)
	}
}

func TestTransferNotMultipleOfMSS(t *testing.T) {
	runTransfer(t, "reno", 8940*3+17, DefaultConfig(), nil)
}

func TestSenderValidation(t *testing.T) {
	e := sim.NewEngine()
	d := netsim.NewDumbbell(e, netsim.DefaultDumbbell(1))
	cfg := DefaultConfig()
	cfg.MTU = 50 // smaller than headers
	func() {
		defer func() {
			if recover() == nil {
				t.Error("tiny MTU did not panic")
			}
		}()
		newSender(e, d.Senders[0], 1, d.Receiver.ID, 1000, cca.MustNew("reno"), cfg)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero-byte transfer did not panic")
			}
		}()
		newSender(e, d.Senders[0], 2, d.Receiver.ID, 0, cca.MustNew("reno"), DefaultConfig())
	}()
}

func TestDoubleStartPanics(t *testing.T) {
	e := sim.NewEngine()
	d := netsim.NewDumbbell(e, netsim.DefaultDumbbell(1))
	s := newSender(e, d.Senders[0], 1, d.Receiver.ID, 1000, cca.MustNew("reno"), DefaultConfig())
	newReceiver(e, d.Receiver, 1, d.Senders[0].ID, DefaultConfig(), false)
	s.Start()
	defer func() {
		if recover() == nil {
			t.Error("double Start did not panic")
		}
	}()
	s.Start()
}

func TestTwoCompetingFlowsShareFairly(t *testing.T) {
	// Two CUBIC flows from separate hosts over a shared drop-tail
	// bottleneck: both finish, and total goodput is near line rate.
	e := sim.NewEngine()
	d := netsim.NewDumbbell(e, netsim.DefaultDumbbell(2))
	cfg := DefaultConfig()
	cfg.TxPathCost = 1500 * sim.Nanosecond
	const bytes = 50 << 20
	var snds []*Sender
	for i := 0; i < 2; i++ {
		flow := netsim.FlowID(i + 1)
		cc := cca.MustNew("cubic")
		newReceiver(e, d.Receiver, flow, d.Senders[i].ID, cfg, false)
		s := newSender(e, d.Senders[i], flow, d.Receiver.ID, bytes, cc, cfg)
		snds = append(snds, s)
		s.Start()
	}
	e.RunUntil(60 * sim.Second)
	var last sim.Time
	for i, s := range snds {
		if !s.Done() {
			t.Fatalf("flow %d incomplete", i)
		}
		if s.CompletedAt > last {
			last = s.CompletedAt
		}
	}
	total := float64(2*bytes) * 8 / last.Seconds()
	if total < 7e9 {
		t.Fatalf("aggregate goodput %.2f Gb/s, want > 7", total/1e9)
	}
}

func TestPipeNeverNegative(t *testing.T) {
	e := sim.NewEngine()
	dcfg := netsim.DefaultDumbbell(1)
	dcfg.BufferBytes = 32 << 10 // heavy loss
	d := netsim.NewDumbbell(e, dcfg)
	cfg := DefaultConfig()
	cfg.TxPathCost = 1500 * sim.Nanosecond
	cc := cca.MustNew("cubic")
	newReceiver(e, d.Receiver, 1, d.Senders[0].ID, cfg, false)
	s := newSender(e, d.Senders[0], 1, d.Receiver.ID, 20<<20, cc, cfg)
	// Check the invariant as the run progresses.
	for i := 1; i <= 100; i++ {
		e.At(sim.Time(i)*10*sim.Millisecond, func() {
			if s.pipe < 0 {
				t.Errorf("pipe went negative: %d", s.pipe)
			}
		})
	}
	s.Start()
	e.RunUntil(60 * sim.Second)
	if !s.Done() {
		t.Fatal("transfer incomplete under heavy loss")
	}
}
