package netsim

// maxFreePackets caps a packet pool's free list. Where packets end is not
// where they start — a receiver frees the data packets its peers allocated
// and allocates only the fewer ACKs — so a pool on a receive-heavy engine
// keeps gaining packets; past the cap they fall to the GC instead of
// growing the list. The cap sits well above a dumbbell's in-flight
// population (its 1 MiB bottleneck buffer holds about 700 full-size
// frames), so a dumbbell run reuses every packet.
const maxFreePackets = 4096

// packetChunk is the least number of packets a pool allocates at once.
// Each chunk is rounded up to fill its allocator size class: at 152 bytes
// a packet, 37 round up to 40, which fill 6,080 bytes of a 6,144-byte
// block.
const packetChunk = 37

// sackChunk is the least number of SACK blocks a pool allocates at once
// for the SACK arrays of its ACKs, rounded up to the size class likewise.
const sackChunk = 64

// packetPool is the free list of packets shared by every host of one
// topology. The topology builders hand one pool to all the hosts they
// build, so data packets one host allocates and another frees, and ACKs
// going the other way, balance out.
//
// A pool that finds its free list empty hands out the next packet of its
// current chunk, a bump cursor over packets never issued before, and takes
// a new chunk only when that one is spent. The free list holds recycled
// packets only. SACK arrays come from chunks of their own, so a data
// packet is no larger for the ACKs it may later become.
type packetPool struct {
	free []*Packet
	// fresh and sacks are the unissued tails of the current packet and
	// SACK-block chunks.
	fresh []Packet
	sacks []SACKBlock
}

// NewPacket hands out a zeroed packet from the pool of the host's engine. A
// transport that takes a packet here gives it back with Recycle where the
// packet ends; one that never does merely leaves it to the GC, though the
// packet's chunk stays alive while any packet of it does.
func (h *Host) NewPacket() *Packet {
	pool := h.pool
	if n := len(pool.free); n > 0 {
		p := pool.free[n-1]
		pool.free[n-1] = nil
		pool.free = pool.free[:n-1]
		p.free = false
		return p
	}
	if len(pool.fresh) == 0 {
		// Appending to nil sizes the chunk up to its size class.
		chunk := append([]Packet(nil), make([]Packet, packetChunk)...)
		pool.fresh = chunk[:cap(chunk)]
	}
	p := &pool.fresh[0]
	pool.fresh = pool.fresh[1:]
	p.pooled = true
	return p
}

// NewSACK hands out an empty SACK array with room for n blocks, for an ACK
// the host is about to send. Arrays are carved from a chunk shared by the
// hosts of the pool, and Recycle keeps a packet's array for its next ACK,
// so a pooled packet takes one at most once.
func (h *Host) NewSACK(n int) []SACKBlock {
	pool := h.pool
	if len(pool.sacks) < n {
		chunk := append([]SACKBlock(nil), make([]SACKBlock, max(n, sackChunk))...)
		pool.sacks = chunk[:cap(chunk)]
	}
	s := pool.sacks[:0:n]
	pool.sacks = pool.sacks[n:]
	return s
}

// Recycle returns a packet that ended at this host to the host's pool. Only
// packets issued by NewPacket are taken back; a hand-built &Packet{} is left
// untouched. Recycling zeroes every field but keeps the SACK and INT arrays,
// emptied, for the packet's next life, so whoever reads a packet's
// telemetry must copy what it keeps past the packet's end. Recycling a
// packet twice panics.
func (h *Host) Recycle(p *Packet) {
	if !p.pooled {
		return
	}
	if p.free {
		panic("netsim: packet recycled twice")
	}
	*p = Packet{SACK: p.SACK[:0], INT: p.INT[:0], pooled: true, free: true}
	if len(h.pool.free) < maxFreePackets {
		h.pool.free = append(h.pool.free, p)
	}
}
