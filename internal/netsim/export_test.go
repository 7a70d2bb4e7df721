package netsim

// MaxFreePackets exposes the pool cap to the external tests.
const MaxFreePackets = maxFreePackets

// FreePackets reports how many packets wait in the host's pool.
func (h *Host) FreePackets() int { return len(h.pool.free) }
