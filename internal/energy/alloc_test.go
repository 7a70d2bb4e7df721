package energy

import (
	"testing"

	"greenenvy/internal/sim"
)

// sampler reports one packet exchange's work through an Account and syncs
// the meter, from an engine event, as the transport and the testbed's
// per-millisecond sampler do.
type sampler struct {
	tick  sim.Timer[sampler]
	meter *Meter
	acct  *Account
}

func (s *sampler) fire() {
	s.acct.SentData(false, 64<<10)
	s.acct.SentData(true, 0)
	s.acct.SentAck()
	s.acct.ReceivedData()
	s.acct.ReceivedAck()
	s.meter.Sync()
}

// TestAccountAndSyncAllocFree pins the accounting path: every Account
// method and Meter.Sync, fired from engine events, allocate nothing. The
// sync runs once per host per millisecond, too rarely for the end-to-end
// marginal-allocation tests to see one allocation per call, so it is
// pinned here on its own.
func TestAccountAndSyncAllocFree(t *testing.T) {
	e := sim.NewEngine()
	m := NewMeter(e, ServerCurve(), DefaultCostModel())
	m.SetBaseLoad(0.25)
	s := &sampler{meter: m, acct: NewAccount(m, "cubic")}
	s.tick.Init(e, s, (*sampler).fire)
	step := func() {
		s.tick.Reset(sim.Millisecond)
		e.Run()
	}
	for i := 0; i < 16; i++ {
		step()
	}
	if got := testing.AllocsPerRun(200, step); got != 0 {
		t.Fatalf("accounting and sync allocate %.1f objects per sample, want 0", got)
	}
	if m.TotalWork() <= 0 || m.Joules() <= 0 {
		t.Fatalf("sampler reported %v core-seconds and %v J", m.TotalWork(), m.Joules())
	}
}
