package core

import (
	"fmt"
	"math"
	"sort"
)

// epsBits is the tolerance for "flow finished" comparisons on bit counts.
// Demands are on the order of 1e10 bits and float64 accumulation error
// stays below ~1e-5 bits at that magnitude, so a millibit threshold is
// safely above rounding noise and far below any real demand.
const epsBits = 1e-3

// Flow is a transfer demand: Bytes to move, released at time Release
// (seconds from experiment start).
type Flow struct {
	Bytes   float64
	Release float64
}

// Phase is one interval of a schedule during which each flow sends at a
// constant rate.
type Phase struct {
	Start, End float64   // seconds
	Rates      []float64 // bits/second per flow
}

// Schedule is a piecewise-constant rate plan for n flows over a shared
// link.
type Schedule struct {
	Flows  []Flow
	Phases []Phase
}

// Duration returns the schedule's makespan in seconds.
func (s Schedule) Duration() float64 {
	if len(s.Phases) == 0 {
		return 0
	}
	return s.Phases[len(s.Phases)-1].End
}

// Energy integrates Σ p(rateᵢ(t)) dt over the whole schedule, with each
// flow on its own host: idle hosts burn p(0) until the makespan — the
// paper's measurement window runs "from when the experiment began until
// both flows successfully completed".
//
// p must be a pure function of the rate: Energy reuses p(r) while
// consecutive rates, in phase order, are bit-identical. The sum is the
// same as calling p for every rate, and FullSpeedThenIdle's n phases of n
// rates, all but one zero, cost at most 2n+1 calls instead of n².
func (s Schedule) Energy(p PowerFunc) float64 {
	total := 0.0
	var lastBits uint64
	var pLast float64
	cached := false
	for _, ph := range s.Phases {
		dt := ph.End - ph.Start
		for _, r := range ph.Rates {
			if b := math.Float64bits(r); !cached || b != lastBits {
				lastBits, pLast, cached = b, p(r), true
			}
			total += pLast * dt
		}
	}
	return total
}

// FCTs returns each flow's completion time (seconds from experiment
// start).
func (s Schedule) FCTs() []float64 {
	n := len(s.Flows)
	sent := make([]float64, n)
	fct := make([]float64, n)
	for _, ph := range s.Phases {
		dt := ph.End - ph.Start
		for i, r := range ph.Rates {
			if sent[i] >= s.Flows[i].Bytes*8-epsBits {
				continue // already complete; keep the first FCT
			}
			sent[i] += r * dt
			if sent[i] >= s.Flows[i].Bytes*8-epsBits {
				fct[i] = ph.End - s.Flows[i].Release
			}
		}
	}
	return fct
}

// MeanFCT returns the average flow completion time.
func (s Schedule) MeanFCT() float64 {
	f := s.FCTs()
	sum := 0.0
	for _, v := range f {
		sum += v
	}
	return sum / float64(len(f))
}

// validateFlows rejects empty or nonsensical demand sets. The strategy
// schedules (simultaneous) also reject any release other than zero.
func validateFlows(flows []Flow, capacityBps float64, simultaneous bool) error {
	if len(flows) == 0 {
		return fmt.Errorf("core: no flows")
	}
	if capacityBps <= 0 {
		return fmt.Errorf("core: non-positive capacity")
	}
	for i, f := range flows {
		if f.Bytes <= 0 {
			return fmt.Errorf("core: flow %d has non-positive size", i)
		}
		if simultaneous && f.Release != 0 {
			return fmt.Errorf("core: strategy schedules require simultaneous release (flow %d releases at %v); use the Scheduler for arrivals", i, f.Release)
		}
		if f.Release < 0 {
			return fmt.Errorf("core: flow %d has negative release", i)
		}
	}
	return nil
}

// FairShare builds the processor-sharing schedule: all active flows split
// the link equally; when one finishes, the survivors re-split (max-min
// fair, work conserving). This is the TCP fair share the paper's Figure 1
// identifies as the least energy-efficient allocation.
func FairShare(flows []Flow, capacityBps float64) (Schedule, error) {
	if err := validateFlows(flows, capacityBps, true); err != nil {
		return Schedule{}, err
	}
	return fluid(flows, equalShare(capacityBps)), nil
}

// WeightedShare builds the schedule where active flows split the link in
// proportion to weights (the Figure 1 sweep: weights (f, 1−f)). It is work
// conserving: when a flow finishes, the remaining flows re-normalize.
// Weight-zero flows receive capacity only once all weighted flows finish.
func WeightedShare(flows []Flow, capacityBps float64, weights []float64) (Schedule, error) {
	if err := validateFlows(flows, capacityBps, true); err != nil {
		return Schedule{}, err
	}
	if len(weights) != len(flows) {
		return Schedule{}, fmt.Errorf("core: %d weights for %d flows", len(weights), len(flows))
	}
	for i, w := range weights {
		if w < 0 {
			return Schedule{}, fmt.Errorf("core: negative weight %v for flow %d", w, i)
		}
	}
	return fluid(flows, func(active []int, _, rates []float64) {
		// Active weighted flows share by weight; if none, weight-zero
		// flows share equally (background class).
		var wsum float64
		weighted := 0
		for _, i := range active {
			if weights[i] > 0 {
				wsum += weights[i]
				weighted++
			}
		}
		for _, i := range active {
			switch {
			case weighted > 0 && weights[i] > 0:
				rates[i] = capacityBps * weights[i] / wsum
			case weighted == 0:
				rates[i] = capacityBps / float64(len(active))
			}
		}
	}), nil
}

// FullSpeedThenIdle builds the serial schedule: flows take the full link
// one at a time, shortest first (SRPT order — also optimal for mean FCT),
// while the others idle. This is the paper's most energy-efficient
// allocation. It is SRPT over simultaneous releases, built directly: the
// fluid loop would rescan every unfinished flow at each of the n
// completions, and the fattree-incast table builds a 256-flow serial
// schedule on every run and replay.
func FullSpeedThenIdle(flows []Flow, capacityBps float64) (Schedule, error) {
	if err := validateFlows(flows, capacityBps, true); err != nil {
		return Schedule{}, err
	}
	n := len(flows)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return flows[order[a]].Bytes < flows[order[b]].Bytes })
	s := Schedule{Flows: flows}
	t := 0.0
	for _, i := range order {
		dt := flows[i].Bytes * 8 / capacityBps
		rates := make([]float64, n)
		rates[i] = capacityBps
		s.Phases = append(s.Phases, Phase{Start: t, End: t + dt, Rates: rates})
		t += dt
	}
	return s, nil
}

// SavingsOverFair returns the fractional energy saving of schedule s
// relative to the fair-share schedule for the same flows and capacity.
func SavingsOverFair(s Schedule, capacityBps float64, p PowerFunc) (float64, error) {
	fair, err := FairShare(s.Flows, capacityBps)
	if err != nil {
		return 0, err
	}
	ef := fair.Energy(p)
	if ef == 0 {
		return 0, fmt.Errorf("core: fair schedule has zero energy")
	}
	return (ef - s.Energy(p)) / ef, nil
}
