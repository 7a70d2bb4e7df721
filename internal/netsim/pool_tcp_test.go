package netsim_test

import (
	"testing"

	"greenenvy/internal/iperf"
	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
	"greenenvy/internal/tcp"
)

// TestReceiverHeavyPoolStaysCapped runs TCP between two bare hosts, each
// with its own pool. Data packets are allocated from the sender's pool and
// freed into the receiver's, which allocates only the fewer ACKs, so the
// receiver's pool gains packets all run long: more than the cap, which no
// pool may exceed.
func TestReceiverHeavyPoolStaysCapped(t *testing.T) {
	e := sim.NewEngine()
	tx := netsim.NewHost(0, "tx")
	rx := netsim.NewHost(1, "rx")
	const rate = 10_000_000_000
	tx.SetEgress(netsim.NewLink(e, "tx->rx", rate, 5*sim.Microsecond, netsim.NewDropTail(0, 0), rx))
	rx.SetEgress(netsim.NewLink(e, "rx->tx", rate, 5*sim.Microsecond, netsim.NewDropTail(0, 0), tx))
	c, err := iperf.NewClient(e, iperf.Spec{
		Flow: 1, Bytes: 24_000_000, CCA: "cubic", Config: tcp.Config{MTU: 1500},
	}, tx, rx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	e.RunUntil(10 * sim.Second)
	if !c.Done() {
		t.Fatal("flow did not complete")
	}
	for _, h := range []*netsim.Host{tx, rx} {
		if n := h.FreePackets(); n > netsim.MaxFreePackets {
			t.Fatalf("host %s pool holds %d packets, cap %d", h.Name(), n, netsim.MaxFreePackets)
		}
	}
	// Every data packet the receiver took in ended there, and every ACK it
	// sent came from its own pool: without the cap the pool would hold
	// the difference.
	if gained := int(rx.RxPackets) - int(rx.TxPackets); gained <= netsim.MaxFreePackets {
		t.Fatalf("receiver gained only %d packets; the run does not exercise the cap %d", gained, netsim.MaxFreePackets)
	}
}
