package netsim_test

import (
	"testing"

	"greenenvy/internal/iperf"
	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
	"greenenvy/internal/tcp"
)

// TestShardedIncastPoolsStayCapped runs TCP over a sharded k=4 fat-tree
// with every sender in a foreign pod converging on host 0. Data packets are
// allocated from the senders' shard pools and freed into the receiver's,
// which allocates only the fewer ACKs, so the receiver's pool gains packets
// all run long: more than the cap, which no pool may exceed.
func TestShardedIncastPoolsStayCapped(t *testing.T) {
	const senders = 12
	cfg := netsim.DefaultFatTree(4)
	g := sim.NewShardGroup(4)
	ft := netsim.NewFatTreeSharded(g, cfg)
	var clients []*iperf.Client
	for i := 0; i < senders; i++ {
		src := netsim.NodeID(4 + i) // pods 1-3
		c, err := iperf.NewClientOn(ft.EngineOf(src), ft.EngineOf(0), iperf.Spec{
			Flow: netsim.FlowID(i + 1), Bytes: 2_000_000, CCA: "cubic", Config: tcp.Config{MTU: 1500},
		}, ft.Hosts[src], ft.Hosts[0], nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		clients = append(clients, c)
	}
	g.Run(10*sim.Second, 2)
	for i, c := range clients {
		if !c.Done() {
			t.Fatalf("flow %d did not complete", i+1)
		}
	}
	for _, h := range ft.Hosts {
		if n := h.FreePackets(); n > netsim.MaxFreePackets {
			t.Fatalf("host %s pool holds %d packets, cap %d", h.Name, n, netsim.MaxFreePackets)
		}
	}
	// Every data packet the receiver took in ended there, and every ACK it
	// sent came from its shard's pool: without the cap the pool would hold
	// the difference.
	rx := ft.Hosts[0]
	if gained := int(rx.RxPackets) - int(rx.TxPackets); gained <= netsim.MaxFreePackets {
		t.Fatalf("receiver gained only %d packets; the run does not exercise the cap %d", gained, netsim.MaxFreePackets)
	}
}
