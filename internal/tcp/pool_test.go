package tcp

import (
	"reflect"
	"testing"

	"greenenvy/internal/energy"
	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
)

// TestHandBuiltPacketsAreNotRecycled: a packet built with &netsim.Packet{}
// rather than taken from a host's pool is never zeroed or reused, whether
// it ends at a receiver (in order, out of order, a stray ACK) or at a
// sender.
func TestHandBuiltPacketsAreNotRecycled(t *testing.T) {
	h := newRxHarness(t, false)
	for _, p := range []*netsim.Packet{
		h.data(0, 1000, 0),
		h.data(3000, 1000, 0), // out of order: answered with a SACK
		{Flow: 1, Flags: netsim.FlagACK, WireSize: HeaderBytes},
	} {
		before := *p
		h.recv.handleData(p)
		h.engine.Run()
		if !reflect.DeepEqual(*p, before) {
			t.Fatalf("receiver mutated a hand-built packet:\n got  %+v\n want %+v", *p, before)
		}
	}

	s := newSenderHarness(t, 10_000, "reno", plainCfg())
	s.snd.Start()
	ack := &netsim.Packet{Flow: 1, Flags: netsim.FlagACK, Ack: 1000, WireSize: HeaderBytes,
		SACK: []netsim.SACKBlock{{Start: 2000, End: 3000}}}
	before := *ack
	sack := before.SACK[0]
	s.host.HandlePacket(ack)
	if !reflect.DeepEqual(*ack, before) || ack.SACK[0] != sack {
		t.Fatalf("sender mutated a hand-built ACK: %+v", *ack)
	}
}

// TestPooledPacketsEndWhereTheyAreConsumed: a pooled data packet returns to
// the pool once the receiver has processed it, and a pooled ACK once the
// sender has.
func TestPooledPacketsEndWhereTheyAreConsumed(t *testing.T) {
	h := newRxHarness(t, false)
	p := h.recv.host.NewPacket()
	p.Flow, p.DataLen, p.WireSize = 1, 1000, 1000+HeaderBytes
	h.recv.handleData(p)
	if h.recv.RcvNxt() != 1000 {
		t.Fatal("pooled data packet was not delivered")
	}
	if h.recv.host.NewPacket() != p {
		t.Fatal("receiver did not recycle the data packet it consumed")
	}

	s := newSenderHarness(t, 10_000, "reno", plainCfg())
	s.snd.Start()
	ack := s.host.NewPacket()
	ack.Flow, ack.Flags, ack.Ack, ack.WireSize = 1, netsim.FlagACK, 1000, HeaderBytes
	s.host.HandlePacket(ack)
	if s.snd.sndUna != 1000 {
		t.Fatal("pooled ACK was not processed")
	}
	if s.host.NewPacket() != ack {
		t.Fatal("sender did not recycle the ACK it consumed")
	}
}

// TestReceiverLossEpisodeAllocFree pins the SACK path: once warm, a
// receiver answering out-of-order segments with full SACK options takes
// every ACK from its host's pool and assembles the blocks in place.
func TestReceiverLossEpisodeAllocFree(t *testing.T) {
	h := newRxHarness(t, false)
	host := h.recv.host
	host.SetEgress(netsim.HandlerFunc(host.Recycle)) // the ACK ends on the wire
	seq := uint64(1000)                              // [0, 1000) stays missing
	arrive := func(gap uint64) {
		p := host.NewPacket()
		p.Flow, p.Seq, p.DataLen, p.WireSize = 1, seq, 1000, 1000+HeaderBytes
		seq += 1000 + gap
		h.recv.handleData(p)
	}
	for i := 0; i < 8; i++ {
		arrive(1000) // eight disjoint ranges above the hole
	}
	for i := 0; i < 8; i++ {
		arrive(0) // warm: the top range grows, the set does not
	}
	if got := testing.AllocsPerRun(200, func() { arrive(0) }); got != 0 {
		t.Fatalf("out-of-order receive path allocates %.1f objects/segment, want 0", got)
	}
	if n := len(h.recv.sackBlocks()); n != maxSACKBlocks {
		t.Fatalf("loss episode reports %d SACK blocks, want a full option of %d", n, maxSACKBlocks)
	}
}

// TestSenderTimeoutEpisodeAllocFree pins the sender's timer paths: a warm
// pooled sender whose every segment is lost fires a tail loss probe, then
// RTOs with backoff (1 s, then 2 s), until a final pooled ACK completes the
// transfer and Reset rebinds the sender. Each episode allocates nothing.
func TestSenderTimeoutEpisodeAllocFree(t *testing.T) {
	const total = 3000 // three segments: a tail, so the probe arms
	h := newSenderHarness(t, total, "reno", plainCfg())
	h.host.SetEgress(netsim.HandlerFunc(h.host.Recycle)) // every segment is lost
	cc, cfg := h.snd.CC(), plainCfg()
	var tlps, rtos uint64
	episode := func() {
		h.snd.Start()
		h.engine.RunUntil(h.engine.Now() + 10*sim.Millisecond)
		tlps = h.snd.Retransmits
		h.engine.RunUntil(h.engine.Now() + 3500*sim.Millisecond)
		rtos = h.snd.Timeouts
		ack := h.host.NewPacket()
		ack.Flow, ack.Flags, ack.Ack, ack.WireSize = 1, netsim.FlagACK, total, HeaderBytes
		h.host.HandlePacket(ack)
		if !h.snd.Done() {
			t.Fatal("final ACK did not complete the transfer")
		}
		cc.Restart()
		h.snd.Reset(h.host, 1, 9, total, cc, cfg, energy.Account{})
	}
	for i := 0; i < 4; i++ {
		episode()
	}
	if got := testing.AllocsPerRun(20, episode); got != 0 {
		t.Fatalf("timeout episode allocates %.1f objects, want 0", got)
	}
	if tlps != 1 || rtos != 2 {
		t.Fatalf("episode fired %d probes and %d RTOs, want 1 and 2", tlps, rtos)
	}
}
