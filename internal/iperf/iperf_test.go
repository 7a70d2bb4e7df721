package iperf

import (
	"strings"
	"testing"

	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
	"greenenvy/internal/tcp"
)

func newNet(t *testing.T) (*sim.Engine, *netsim.Dumbbell) {
	t.Helper()
	e := sim.NewEngine()
	return e, netsim.NewDumbbell(e, netsim.DefaultDumbbell(2))
}

func newClient(t *testing.T, e *sim.Engine, d *netsim.Dumbbell, spec Spec) *Client {
	t.Helper()
	if spec.Config.TxPathCost == 0 {
		spec.Config.TxPathCost = 1500 * sim.Nanosecond
	}
	c, err := NewClient(e, spec, d.Senders[0], d.Receiver, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClientTransfersAndReports(t *testing.T) {
	e, d := newNet(t)
	c := newClient(t, e, d, Spec{Flow: 1, Bytes: 100 << 20, CCA: "cubic"})
	var final Report
	c.OnDone(func(c *Client) { final = c.Report() })
	c.Start()
	e.RunUntil(30 * sim.Second)
	if !c.Done() {
		t.Fatal("transfer incomplete")
	}
	if final.Bytes != 100<<20 {
		t.Fatalf("final bytes = %d", final.Bytes)
	}
	if final.Bps < 5e9 {
		t.Fatalf("goodput = %.2f Gb/s, want several Gb/s", final.Bps/1e9)
	}
	if final.Seconds <= 0 {
		t.Fatal("zero duration")
	}
	if !strings.Contains(final.String(), "Gbits/sec") {
		t.Fatalf("report string = %q", final.String())
	}
}

func TestClientRateLimit(t *testing.T) {
	e, d := newNet(t)
	c := newClient(t, e, d, Spec{Flow: 1, Bytes: 50 << 20, CCA: "cubic", TargetBps: 1_000_000_000})
	c.Start()
	e.RunUntil(30 * sim.Second)
	r := c.Report()
	if r.Bps > 1.05e9 || r.Bps < 0.85e9 {
		t.Fatalf("rate-limited goodput = %.3f Gb/s, want ~1", r.Bps/1e9)
	}
}

func TestClientStartAt(t *testing.T) {
	e, d := newNet(t)
	c := newClient(t, e, d, Spec{Flow: 1, Bytes: 1 << 20, CCA: "reno", StartAt: 100 * sim.Millisecond})
	c.Start()
	e.RunUntil(10 * sim.Second)
	if c.Report().Start < 100*sim.Millisecond {
		t.Fatalf("started at %v, want >= 100ms", c.Report().Start)
	}
}

func TestClientChainStartAfter(t *testing.T) {
	e, d := newNet(t)
	c1 := newClient(t, e, d, Spec{Flow: 1, Bytes: 10 << 20, CCA: "cubic"})
	spec2 := Spec{Flow: 2, Bytes: 10 << 20, CCA: "cubic", Config: tcp.Config{TxPathCost: 1500}}
	c2, err := NewClient(e, spec2, d.Senders[1], d.Receiver, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2.StartAfter(c1)
	c1.Start()
	c2.Start()
	e.RunUntil(30 * sim.Second)
	if !c1.Done() || !c2.Done() {
		t.Fatal("chained transfers incomplete")
	}
	if c2.Report().Start < c1.Report().End {
		t.Fatalf("flow 2 started at %v before flow 1 ended at %v", c2.Report().Start, c1.Report().End)
	}
}

func TestClientOnDoneHooks(t *testing.T) {
	e, d := newNet(t)
	c := newClient(t, e, d, Spec{Flow: 1, Bytes: 1 << 20, CCA: "reno"})
	order := []int{}
	c.OnDone(func(*Client) { order = append(order, 1) })
	c.OnDone(func(*Client) { order = append(order, 2) })
	c.Start()
	e.RunUntil(10 * sim.Second)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("hook order = %v", order)
	}
}

func TestClientValidation(t *testing.T) {
	e, d := newNet(t)
	if _, err := NewClient(e, Spec{Flow: 1, Bytes: 0, CCA: "cubic"}, d.Senders[0], d.Receiver, nil, nil); err == nil {
		t.Error("zero bytes accepted")
	}
	if _, err := NewClient(e, Spec{Flow: 1, Bytes: 1, CCA: "no-such-cca"}, d.Senders[0], d.Receiver, nil, nil); err == nil {
		t.Error("unknown CCA accepted")
	}
}

func TestConfigDefaultsFilled(t *testing.T) {
	e, d := newNet(t)
	c := newClient(t, e, d, Spec{Flow: 1, Bytes: 1 << 20, CCA: "dctcp"})
	c.Start()
	e.RunUntil(10 * sim.Second)
	r := c.Report()
	if r.MTU != 9000 {
		t.Fatalf("default MTU = %d, want 9000", r.MTU)
	}
}
