package netsim

import (
	"reflect"
	"testing"

	"greenenvy/internal/sim"
)

// TestNewPacketRecycleRoundTrip checks the pool contract: a recycled packet
// comes back zeroed, with its SACK and INT arrays kept, emptied, for reuse.
func TestNewPacketRecycleRoundTrip(t *testing.T) {
	h := NewHost(0, "h")
	p := h.NewPacket()
	if !p.pooled || p.free {
		t.Fatalf("fresh packet state pooled=%v free=%v", p.pooled, p.free)
	}
	p.Flow, p.Seq, p.WireSize, p.Flags, p.hops = 7, 1000, 1500, FlagACK|FlagECE, 3
	p.SACK = append(p.SACK, SACKBlock{1, 2}, SACKBlock{3, 4})
	p.INT = append(p.INT, INTHop{QueueBytes: 9}, INTHop{QueueBytes: 8}, INTHop{QueueBytes: 7})
	h.Recycle(p)

	q := h.NewPacket()
	if q != p {
		t.Fatal("the pool did not hand the recycled packet back")
	}
	if cap(q.SACK) < 2 || len(q.SACK) != 0 {
		t.Fatalf("SACK after recycle: len %d cap %d, want empty with the array kept", len(q.SACK), cap(q.SACK))
	}
	if cap(q.INT) < 3 || len(q.INT) != 0 {
		t.Fatalf("INT after recycle: len %d cap %d, want empty with the array kept", len(q.INT), cap(q.INT))
	}
	want := Packet{SACK: q.SACK, INT: q.INT, pooled: true}
	if !reflect.DeepEqual(*q, want) {
		t.Fatalf("reissued packet not zeroed: %+v", *q)
	}
}

func TestRecycleTwicePanics(t *testing.T) {
	h := NewHost(0, "h")
	p := h.NewPacket()
	h.Recycle(p)
	defer func() {
		if recover() == nil {
			t.Fatal("second Recycle of one packet did not panic")
		}
	}()
	h.Recycle(p)
}

// TestRecycleIgnoresHandBuiltPackets: a &Packet{} literal never enters a
// pool and is left exactly as it was.
func TestRecycleIgnoresHandBuiltPackets(t *testing.T) {
	h := NewHost(0, "h")
	p := &Packet{Flow: 3, Seq: 100, DataLen: 1440, WireSize: 1500, SACK: []SACKBlock{{5, 6}}}
	before := *p
	h.Recycle(p)
	h.Recycle(p) // not pooled, so not a double recycle either
	if !reflect.DeepEqual(*p, before) {
		t.Fatalf("hand-built packet mutated: %+v", *p)
	}
	if h.NewPacket() == p {
		t.Fatal("hand-built packet entered the pool")
	}
}

// TestChunkedPacketsAreDistinctAndZeroed: packets cut from chunks are
// separate, zeroed packets, and the free list holds only recycled ones.
func TestChunkedPacketsAreDistinctAndZeroed(t *testing.T) {
	h := NewHost(0, "h")
	seen := map[*Packet]bool{}
	for i := 0; i < 3*packetChunk; i++ {
		p := h.NewPacket()
		if seen[p] {
			t.Fatalf("packet %d handed out twice", i)
		}
		seen[p] = true
		if !reflect.DeepEqual(*p, Packet{pooled: true}) {
			t.Fatalf("packet %d not zeroed: %+v", i, *p)
		}
		p.Seq, p.WireSize = uint64(i), 1500
	}
	if n := len(h.pool.free); n != 0 {
		t.Fatalf("free list holds %d packets before any recycling", n)
	}
}

// TestNewSACKCarvesDisjointArrays: SACK arrays taken from one chunk are
// empty, exactly as large as asked, and never overlap, so filling one ACK's
// blocks, or appending past them, leaves every other ACK's alone.
func TestNewSACKCarvesDisjointArrays(t *testing.T) {
	h := NewHost(0, "h")
	var arrays [][]SACKBlock
	for i := 0; i < 3*sackChunk; i++ {
		s := h.NewSACK(4)
		if len(s) != 0 || cap(s) != 4 {
			t.Fatalf("array %d: len %d cap %d, want 0 and 4", i, len(s), cap(s))
		}
		s = append(s, SACKBlock{uint64(i), uint64(i)}, SACKBlock{uint64(i), uint64(i)},
			SACKBlock{uint64(i), uint64(i)}, SACKBlock{uint64(i), uint64(i)})
		arrays = append(arrays, s)
	}
	arrays[0] = append(arrays[0], SACKBlock{99, 99}) // past its capacity: must move
	for i, s := range arrays {
		for _, b := range s[:4] {
			if b.Start != uint64(i) {
				t.Fatalf("array %d holds block %v of another ACK", i, b)
			}
		}
	}
	if big := h.NewSACK(2 * sackChunk); cap(big) != 2*sackChunk {
		t.Fatalf("NewSACK(%d) has room for %d blocks", 2*sackChunk, cap(big))
	}
}

func TestPacketPoolCap(t *testing.T) {
	h := NewHost(0, "h")
	fresh := make([]*Packet, maxFreePackets+10)
	for i := range fresh {
		fresh[i] = &Packet{pooled: true}
	}
	for _, p := range fresh {
		h.Recycle(p)
	}
	if n := len(h.pool.free); n != maxFreePackets {
		t.Fatalf("free list holds %d packets, cap is %d", n, maxFreePackets)
	}
}

// TestHostDeliveryRecyclesUnclaimedPackets: a packet for a flow with no
// handler ends at the host and returns to its pool.
func TestHostDeliveryRecyclesUnclaimedPackets(t *testing.T) {
	h := NewHost(0, "h")
	p := h.NewPacket()
	p.Flow = 8
	h.HandlePacket(p)
	if len(h.pool.free) != 1 || h.pool.free[0] != p {
		t.Fatal("packet for an unknown flow was not recycled")
	}
}

// TestTopologiesShareOnePoolPerEngine: every host a builder places on one
// engine draws from the same pool; bare hosts own theirs.
func TestTopologiesShareOnePoolPerEngine(t *testing.T) {
	d := NewDumbbell(sim.NewEngine(), DefaultDumbbell(3))
	for _, h := range d.AllHosts() {
		if h.pool != d.Receiver.pool {
			t.Fatalf("dumbbell host %s has its own pool", h.Name())
		}
	}
	ft := NewFatTree(sim.NewEngine(), DefaultFatTree(4))
	for _, h := range ft.Hosts {
		if h.pool != ft.Hosts[0].pool {
			t.Fatalf("fat-tree host %s has its own pool", h.Name())
		}
	}
	if NewHost(0, "a").pool == NewHost(1, "b").pool {
		t.Fatal("bare hosts share a pool")
	}
}
