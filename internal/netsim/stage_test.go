package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strings"
	"testing"

	"greenenvy/internal/sim"
)

// TestStageKeepsSchedulingOrder puts two links on one stage and due-time
// ties against engine callbacks: every delivery must fire at the rank it
// took when it entered the stage, not at a rank taken when the stage
// re-arms for it. Both links finish serializing at T, A first, so both
// packets are due at T+D; one callback was scheduled for T+D before they
// entered the stage and one after.
func TestStageKeepsSchedulingOrder(t *testing.T) {
	const delay = 5 * sim.Microsecond
	e := sim.NewEngine()
	wire := newStage(e, delay)
	var order []string
	record := func(what string) Handler {
		return HandlerFunc(func(*Packet) { order = append(order, what) })
	}
	var a, b Link
	a.init(e, 10_000_000_000, wire, NewDropTail(0, 0), record("a"))
	b.init(e, 10_000_000_000, wire, NewDropTail(0, 0), record("b"))
	a.HandlePacket(&Packet{WireSize: 1500})
	b.HandlePacket(&Packet{WireSize: 1500})
	tx := a.SerializationTime(1500)
	e.At(tx+delay, func() { order = append(order, "early") })
	e.At(tx, func() { e.At(tx+delay, func() { order = append(order, "late") }) })
	e.Run()
	if want := []string{"early", "a", "b", "late"}; !slices.Equal(order, want) {
		t.Fatalf("deliveries fired as %v, want %v", order, want)
	}
	if wire.line.Len() != 0 {
		t.Fatalf("stage holds %d packets after the run", wire.line.Len())
	}
}

// TestTopologiesShareStagesPerDelay: a fat-tree puts every link on one
// stage and every switch on another, or all of them on one when the link
// delay equals the switch latency; a dumbbell has one link stage per
// distinct access delay. A standalone link or switch has a stage of its
// own, and each element reports the delay it was built with.
func TestTopologiesShareStagesPerDelay(t *testing.T) {
	stagesOf := func(ft *FatTree) (wires, pipes map[*stage]bool) {
		wires, pipes = map[*stage]bool{}, map[*stage]bool{}
		for _, h := range ft.Hosts {
			wires[h.egress.(*Link).wire] = true
		}
		for _, s := range ft.Switches() {
			pipes[s.pipe] = true
			for _, r := range s.ranges {
				for _, p := range r.ports {
					wires[p.(*Link).wire] = true
				}
			}
		}
		return wires, pipes
	}
	e := sim.NewEngine()
	cfg := DefaultFatTree(4)
	wires, pipes := stagesOf(NewFatTree(e, cfg))
	if len(wires) != 1 || len(pipes) != 1 {
		t.Fatalf("k=4 fat-tree: %d link stages and %d switch stages, want 1 and 1", len(wires), len(pipes))
	}
	for w := range wires {
		if pipes[w] {
			t.Fatal("links share the switches' stage though their delays differ")
		}
	}
	cfg.SwitchDelay = cfg.LinkDelay
	wires, pipes = stagesOf(NewFatTree(e, cfg))
	for w := range wires {
		if len(wires) != 1 || len(pipes) != 1 || !pipes[w] {
			t.Fatalf("equal delays: %d link stages and %d switch stages, want one shared stage", len(wires), len(pipes))
		}
	}

	dcfg := DefaultDumbbell(3)
	dcfg.AccessDelays = []sim.Duration{5 * sim.Microsecond, 250 * sim.Microsecond, 250 * sim.Microsecond}
	d := NewDumbbell(e, dcfg)
	up := func(i int) *Link { return d.Senders[i].egress.(*Bond).Members()[0] }
	if up(0).wire != d.Bottleneck.wire || up(1).wire != up(2).wire || up(0).wire == up(1).wire {
		t.Fatal("dumbbell links do not share one stage per distinct delay")
	}
	if got := up(1).Delay(); got != 250*sim.Microsecond {
		t.Fatalf("sender 1 uplink delay %v, want 250µs", got)
	}

	l1 := NewLink(e, "x", 1, 3, NewDropTail(0, 0), d.Receiver)
	l2 := NewLink(e, "y", 1, 3, NewDropTail(0, 0), d.Receiver)
	s1, s2 := NewSwitch(e, "s1", 2), NewSwitch(e, "s2", 2)
	if l1.wire == l2.wire || s1.pipe == s2.pipe {
		t.Fatal("standalone links or switches share a stage")
	}
	if l1.Delay() != 3 || s1.PipelineDelay() != 2 || NewSwitch(e, "s0", 0).PipelineDelay() != 0 {
		t.Fatalf("delays %v and %v, want 3 and 2", l1.Delay(), s1.PipelineDelay())
	}
}

// TestFatTreeNamesOnDemand: a fat-tree builds no name strings, yet every
// element renders the name it had when the builder made the strings. The
// digest covers, at k=4, each host with its uplink and downlink, then each
// switch with the links of its range routes, one name a line.
func TestFatTreeNamesOnDemand(t *testing.T) {
	const want = "dad34951e4d3c31a9c9aeb669d9a5bc51204794ddcffe1bc4ebbb186e7065969"
	ft := NewFatTree(sim.NewEngine(), DefaultFatTree(4))
	var names []string
	for _, h := range ft.Hosts {
		names = append(names, h.Name(), h.egress.(*Link).Name(), ft.HostDownlink(h.ID).Name())
	}
	for _, s := range ft.Switches() {
		names = append(names, s.Name())
		for _, r := range s.ranges {
			for _, p := range r.ports {
				names = append(names, p.(*Link).Name())
			}
		}
	}
	sum := sha256.Sum256([]byte(strings.Join(names, "\n")))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("names digest %s, want %s", got, want)
	}
	for _, c := range []struct{ got, want string }{
		{names[15], "h5"},
		{names[16], "h5-up"},
		{names[17], "edge-p1-e0->h5"},
		{ft.Cores[3].Name(), "core-3"},
		{ft.PathFor(1, 0, 15)[3].Name(), "core-0->agg-p3-a0"},
	} {
		if c.got != c.want {
			t.Errorf("name %q, want %q", c.got, c.want)
		}
	}
}
