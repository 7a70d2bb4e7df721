package netsim

// maxFreePackets caps a packet pool's free list. Where packets end is not
// where they start — a receiver frees the data packets its peers allocated
// and allocates only the fewer ACKs — so a pool on a receive-heavy engine
// keeps gaining packets; past the cap they fall to the GC instead of
// growing the list. The cap sits well above a dumbbell's in-flight
// population (its 1 MiB bottleneck buffer holds about 700 full-size
// frames), so a dumbbell run reuses every packet.
const maxFreePackets = 4096

// packetPool is the free list of packets shared by every host on one engine.
// The topology builders hand one pool to all hosts they place on the same
// engine, so data packets one host allocates and another frees, and ACKs
// going the other way, balance out; the sharded fat-tree builds one pool per
// shard, so each pool is only ever touched by its own shard's goroutine.
type packetPool struct {
	free []*Packet
}

// NewPacket hands out a zeroed packet from the pool of the host's engine. A
// transport that takes a packet here gives it back with Recycle where the
// packet ends; one that never does merely leaves it to the GC.
//
//greenvet:hotpath
func (h *Host) NewPacket() *Packet {
	pool := h.pool
	if n := len(pool.free); n > 0 {
		p := pool.free[n-1]
		pool.free[n-1] = nil
		pool.free = pool.free[:n-1]
		p.free = false
		return p
	}
	return &Packet{pooled: true} //greenvet:allow hotpathalloc pool refill: one allocation per packet of the engine's peak in-flight population, then recycled
}

// Recycle returns a packet that ended at this host to the host's pool. Only
// packets issued by NewPacket are taken back; a hand-built &Packet{} is left
// untouched. Recycling zeroes every field but keeps the SACK array for the
// packet's next ACK; INT is dropped, never reused, because a receiver's
// echoed telemetry and a congestion controller's last sample may still
// alias it. Recycling a packet twice panics.
//
//greenvet:hotpath
func (h *Host) Recycle(p *Packet) {
	if !p.pooled {
		return
	}
	if p.free {
		panic("netsim: packet recycled twice")
	}
	*p = Packet{SACK: p.SACK[:0], pooled: true, free: true}
	if len(h.pool.free) < maxFreePackets {
		h.pool.free = append(h.pool.free, p) //greenvet:allow hotpathalloc free list grows to the engine's in-flight packet population, at most maxFreePackets, then growth stops
	}
}
