package iperf

import (
	"testing"
	"unsafe"

	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
)

func newResetFixture(t *testing.T) (*Client, *netsim.Dumbbell, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	d := netsim.NewDumbbell(eng, netsim.DefaultDumbbell(1))
	c, err := NewClient(eng, Spec{Flow: 1, Bytes: 10_000, CCA: "cubic"},
		d.Senders[0], d.Receiver, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c, d, eng
}

// TestNewClientAllocs pins what one client costs to build: the client,
// which holds its TCP sender and receiver and their energy accounts by
// value, and the congestion controller. The client's and endpoints' timers
// bind by owner and method expression, and the endpoints attach to their
// hosts and the sender to its client as named pointer types, so none of
// them adds a closure; binding method values instead cost 15 objects per
// client, and endpoints allocated apart with a closure for the completion
// callback 5.
func TestNewClientAllocs(t *testing.T) {
	const limit = 2
	eng := sim.NewEngine()
	d := netsim.NewDumbbell(eng, netsim.DefaultDumbbell(1))
	spec := Spec{Flow: 1, Bytes: 10_000, CCA: "cubic"}
	build := func() {
		if _, err := NewClient(eng, spec, d.Senders[0], d.Receiver, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	build() // warm: the topology's flow table now holds the flow
	if got := testing.AllocsPerRun(100, build); got > limit {
		t.Fatalf("NewClient allocates %.0f objects, want at most %d", got, limit)
	}
}

// TestClientResetNoAllocs pins the pooled flow-setup path: once a client
// exists, rebinding it to a new transfer — fresh flow ID, restarted
// congestion controller, re-attached host handlers, recycled scoreboard
// arrays — must not allocate. This is the churn driver's per-flow cost.
func TestClientResetNoAllocs(t *testing.T) {
	c, d, _ := newResetFixture(t)
	flow := netsim.FlowID(2)
	reset := func() {
		if err := c.Reset(Spec{Flow: flow, Bytes: 10_000, CCA: "cubic"},
			d.Senders[0], d.Receiver, nil, nil); err != nil {
			t.Fatal(err)
		}
		flow++
	}
	reset() // warm: the first reset may grow the topology's flow table
	if n := testing.AllocsPerRun(200, reset); n != 0 {
		t.Fatalf("Client.Reset allocates %.1f times per flow; pooled setup must be allocation-free", n)
	}
}

// TestPooledFlowLifecycleNoAllocs extends the pin from Reset to a pooled
// client's whole flow: Reset, Start (with a Duration stop armed) and the
// transfer itself. Once the engine's event pool, the dumbbell's packet pool
// and the scoreboard arrays are warm, a flow allocates nothing.
func TestPooledFlowLifecycleNoAllocs(t *testing.T) {
	c, d, eng := newResetFixture(t)
	flow := netsim.FlowID(2)
	cycle := func() {
		if err := c.Reset(Spec{Flow: flow, Bytes: 10_000, CCA: "cubic", Duration: sim.Second},
			d.Senders[0], d.Receiver, nil, nil); err != nil {
			t.Fatal(err)
		}
		flow++
		c.Start()
		eng.Run()
		if !c.Done() {
			t.Fatal("pooled flow did not complete")
		}
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a pooled flow's Reset+Start+transfer allocates %.1f times, want 0", n)
	}
}

// TestClientResetRejections covers the pooled-reset refusal cases.
func TestClientResetRejections(t *testing.T) {
	c, d, _ := newResetFixture(t)
	if err := c.Reset(Spec{Flow: 2, Bytes: 0, CCA: "cubic"}, d.Senders[0], d.Receiver, nil, nil); err == nil {
		t.Fatal("zero-byte reset succeeded")
	}
	if err := c.Reset(Spec{Flow: 2, Bytes: 1000, CCA: "no-such-cca"}, d.Senders[0], d.Receiver, nil, nil); err == nil {
		t.Fatal("unknown-CCA reset succeeded")
	}
	// A CCA change on reset builds a fresh controller and still works.
	if err := c.Reset(Spec{Flow: 2, Bytes: 1000, CCA: "reno"}, d.Senders[0], d.Receiver, nil, nil); err != nil {
		t.Fatalf("cross-CCA reset: %v", err)
	}
	if got := c.Sender().CC().Name(); got != "reno" {
		t.Fatalf("controller after cross-CCA reset: %q", got)
	}
}

// TestClientResetRunsFreshTransfer recycles one client through several
// complete transfers and checks each behaves like a fresh client: full
// bytes delivered, reports independent, completion callbacks rebound.
func TestClientResetRunsFreshTransfer(t *testing.T) {
	eng := sim.NewEngine()
	d := netsim.NewDumbbell(eng, netsim.DefaultDumbbell(1))
	c, err := NewClient(eng, Spec{Flow: 1, Bytes: 50_000, CCA: "cubic"},
		d.Senders[0], d.Receiver, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 5; rep++ {
		if rep > 0 {
			if !c.Quiescent() {
				t.Fatalf("rep %d: receiver not quiescent after completion", rep)
			}
			if err := c.Reset(Spec{Flow: netsim.FlowID(rep + 1), Bytes: 50_000, CCA: "cubic"},
				d.Senders[0], d.Receiver, nil, nil); err != nil {
				t.Fatalf("rep %d: %v", rep, err)
			}
		}
		done := false
		c.OnDone(func(*Client) { done = true })
		c.Start()
		eng.RunUntil(eng.Now() + 5*sim.Second)
		if !done || !c.Done() {
			t.Fatalf("rep %d: transfer did not complete", rep)
		}
		r := c.Report()
		if r.Bytes != 50_000 {
			t.Fatalf("rep %d: delivered %d bytes", rep, r.Bytes)
		}
		if r.Flow != netsim.FlowID(rep+1) {
			t.Fatalf("rep %d: report for flow %d", rep, r.Flow)
		}
	}
}

// TestClientIsAtMost3072Bytes pins the one object a flow's client is: the
// client, its two endpoints and their inline first arrays (window,
// retransmission fifos, out-of-order set, SACK recency list, receive ring)
// must fit the allocator's 3,072-byte size class, the one the inline arrays
// were sized for. Every byte a client grows is paid by every fresh client,
// about 1,600 of them in the benchmark's stream workload.
func TestClientIsAtMost3072Bytes(t *testing.T) {
	const sizeClass = 3072
	if n := unsafe.Sizeof(Client{}); n > sizeClass {
		t.Fatalf("a client is %d bytes, want at most %d", n, sizeClass)
	}
}

// TestResetDetachesUnstartedClient: a client reset before it ever started
// no longer receives its old flow's packets. An ACK for the old flow
// arriving at the sender's host is a packet for an unknown flow, recycled
// there, not an ACK the rebound sender counts.
func TestResetDetachesUnstartedClient(t *testing.T) {
	c, d, _ := newResetFixture(t)
	if err := c.Reset(Spec{Flow: 2, Bytes: 10_000, CCA: "cubic"}, d.Senders[0], d.Receiver, nil, nil); err != nil {
		t.Fatal(err)
	}
	host := d.Senders[0]
	ack := host.NewPacket()
	ack.Flow, ack.Flags, ack.Ack, ack.WireSize = 1, netsim.FlagACK, 1000, 60
	host.HandlePacket(ack)
	if n := c.Sender().AcksReceived; n != 0 {
		t.Fatalf("the rebound sender counted %d ACKs of its old flow", n)
	}
	if host.NewPacket() != ack {
		t.Fatal("the old flow's ACK was not recycled as a packet for an unknown flow")
	}
}
