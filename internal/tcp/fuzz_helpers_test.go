package tcp

import (
	"testing"

	"greenenvy/internal/cca"
	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
)

// fuzzHarness mirrors senderHarness for fuzz targets (testing.F-friendly:
// no *testing.T helpers in construction).
type fuzzHarness struct {
	engine *sim.Engine
	host   *netsim.Host
	snd    *Sender
}

func newFuzzHarness(t *testing.T) *fuzzHarness {
	h := &fuzzHarness{engine: sim.NewEngine()}
	h.host = netsim.NewHost(0, "tx")
	h.host.SetEgress(netsim.HandlerFunc(func(*netsim.Packet) {}))
	cfg := plainCfg()
	h.snd = newSender(h.engine, h.host, 1, 9, 120_000, cca.MustNew("reno"), cfg)
	_ = t
	return h
}

func ackPacket(cum uint64) *netsim.Packet {
	return &netsim.Packet{Flow: 1, Flags: netsim.FlagACK, Ack: cum, WireSize: HeaderBytes}
}

func sackBlock(start, end uint64) netsim.SACKBlock {
	return netsim.SACKBlock{Start: start, End: end}
}
