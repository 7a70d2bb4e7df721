package core

import (
	"fmt"
	"math"
)

// Policy selects how a shared link is divided among released, unfinished
// flows — the §5 future-work question: should datacenter transports keep
// approximating processor sharing (fairness), or serialize like SRPT for
// energy?
type Policy int

// Scheduling policies.
const (
	// ProcessorSharing splits capacity equally among active flows (the
	// idealization of TCP fair share).
	ProcessorSharing Policy = iota
	// SRPT gives the full link to the flow with the shortest remaining
	// processing time, preemptively.
	SRPT
)

// String names the policy.
func (p Policy) String() string {
	if p == SRPT {
		return "srpt"
	}
	return "processor-sharing"
}

// Simulate builds the fluid schedule of the policy over flows with
// arbitrary release times. Both policies are work conserving, so they share
// a makespan; their energy and FCT profiles differ.
func Simulate(flows []Flow, capacityBps float64, policy Policy) (Schedule, error) {
	if err := validateFlows(flows, capacityBps, false); err != nil {
		return Schedule{}, err
	}
	switch policy {
	case ProcessorSharing:
		return fluid(flows, equalShare(capacityBps)), nil
	case SRPT:
		return fluid(flows, shortestFirst(capacityBps)), nil
	}
	return Schedule{}, fmt.Errorf("core: unknown policy %d", policy)
}

// rateRule divides the link among the active flows (released, unfinished,
// in index order) for the next phase, writing their rates into the zeroed
// rates.
type rateRule func(active []int, remaining, rates []float64)

// equalShare is processor sharing: every active flow gets an equal share.
func equalShare(capacityBps float64) rateRule {
	return func(active []int, _, rates []float64) {
		share := capacityBps / float64(len(active))
		for _, i := range active {
			rates[i] = share
		}
	}
}

// shortestFirst is SRPT: the active flow with the least remaining data
// (the lowest index among ties) takes the whole link.
func shortestFirst(capacityBps float64) rateRule {
	return func(active []int, remaining, rates []float64) {
		best := active[0]
		for _, i := range active[1:] {
			if remaining[i] < remaining[best] {
				best = i
			}
		}
		rates[best] = capacityBps
	}
}

// fluid is the loop behind every rate-sharing schedule in this package. At
// each event (a release or a completion) the rule re-divides the link
// among the active flows, and the schedule advances at those rates to the
// next event; an interval with no active flow is an idle phase. The caller
// validates flows and capacity.
func fluid(flows []Flow, rule rateRule) Schedule {
	n := len(flows)
	remaining := make([]float64, n)
	for i, f := range flows {
		remaining[i] = f.Bytes * 8
	}
	active := make([]int, 0, n)
	s := Schedule{Flows: flows}
	t := 0.0
	for {
		// Determine the active set and the next release.
		nextRelease := math.Inf(1)
		active = active[:0]
		for i, f := range flows {
			if remaining[i] <= epsBits {
				continue
			}
			if f.Release > t+1e-12 {
				if f.Release < nextRelease {
					nextRelease = f.Release
				}
				continue
			}
			active = append(active, i)
		}
		if len(active) == 0 {
			if math.IsInf(nextRelease, 1) {
				return s // all done
			}
			// Idle gap until the next release.
			s.Phases = append(s.Phases, Phase{Start: t, End: nextRelease, Rates: make([]float64, n)})
			t = nextRelease
			continue
		}

		rates := make([]float64, n)
		rule(active, remaining, rates)

		// Advance to the next event: a completion or a release.
		dt := nextRelease - t
		for _, i := range active {
			if rates[i] > 0 {
				if d := remaining[i] / rates[i]; d < dt {
					dt = d
				}
			}
		}
		for i := range remaining {
			remaining[i] -= rates[i] * dt
		}
		s.Phases = append(s.Phases, Phase{Start: t, End: t + dt, Rates: rates})
		t += dt
	}
}

// Comparison summarizes the energy/FCT trade of SRPT vs processor sharing
// for one workload.
type Comparison struct {
	PSEnergyJ    float64
	SRPTEnergyJ  float64
	SavingFrac   float64 // (PS − SRPT) / PS
	PSMeanFCT    float64
	SRPTMeanFCT  float64
	FCTSpeedup   float64 // PS mean FCT / SRPT mean FCT
	MakespanSecs float64
}

// Compare runs both policies on the workload and reports the trade-off.
// The paper's headline corresponds to two simultaneous equal flows:
// SavingFrac ≈ 0.16 with FCTSpeedup > 1 — unfairness wins on both axes.
func Compare(flows []Flow, capacityBps float64, p PowerFunc) (Comparison, error) {
	ps, err := Simulate(flows, capacityBps, ProcessorSharing)
	if err != nil {
		return Comparison{}, err
	}
	sr, err := Simulate(flows, capacityBps, SRPT)
	if err != nil {
		return Comparison{}, err
	}
	c := Comparison{
		PSEnergyJ:    ps.Energy(p),
		SRPTEnergyJ:  sr.Energy(p),
		PSMeanFCT:    ps.MeanFCT(),
		SRPTMeanFCT:  sr.MeanFCT(),
		MakespanSecs: ps.Duration(),
	}
	if c.PSEnergyJ > 0 {
		c.SavingFrac = (c.PSEnergyJ - c.SRPTEnergyJ) / c.PSEnergyJ
	}
	if c.SRPTMeanFCT > 0 {
		c.FCTSpeedup = c.PSMeanFCT / c.SRPTMeanFCT
	}
	return c, nil
}
