package stats

import "math"

// This file holds the streaming (O(1)-memory) aggregation primitives the
// million-flow workload replay uses: an online mean/extremes accumulator and
// a fixed-size quantile sketch. Both are deterministic functions of their
// insertion order — no randomness, no map iteration — so same-seed runs
// produce byte-identical summaries regardless of how many flows streamed
// through them.

// Accumulator maintains count, sum, and extremes of a stream in O(1) memory.
// The zero value is ready to use.
type Accumulator struct {
	// N is the number of observations.
	N uint64
	// Sum is the running total (accumulated in insertion order).
	Sum float64
	// MinV and MaxV are the extremes, valid once N > 0.
	MinV, MaxV float64
}

// Add folds in one observation.
func (a *Accumulator) Add(x float64) {
	if a.N == 0 || x < a.MinV {
		a.MinV = x
	}
	if a.N == 0 || x > a.MaxV {
		a.MaxV = x
	}
	a.N++
	a.Sum += x
}

// Mean returns the running mean, or NaN before any observation.
func (a *Accumulator) Mean() float64 {
	if a.N == 0 {
		return math.NaN()
	}
	return a.Sum / float64(a.N)
}

// Min returns the smallest observation, or NaN before any.
func (a *Accumulator) Min() float64 {
	if a.N == 0 {
		return math.NaN()
	}
	return a.MinV
}

// Max returns the largest observation, or NaN before any.
func (a *Accumulator) Max() float64 {
	if a.N == 0 {
		return math.NaN()
	}
	return a.MaxV
}

// QuantileSketch estimates one quantile of a stream in O(1) memory with the
// P² algorithm (Jain & Chlamtac, CACM 1985): five markers track the minimum,
// the target quantile, the quantile's flanks, and the maximum, adjusted with
// a piecewise-parabolic fit as observations arrive. The estimate is exact
// for the first five observations and approximate after; the sketch is a
// pure deterministic function of the insertion sequence (no reservoir, no
// randomness), which is what keeps streamed workload digests byte-identical
// across repetitions of the same seed.
type QuantileSketch struct {
	p   float64
	n   uint64
	q   [5]float64 // marker heights
	pos [5]float64 // marker positions (1-based observation counts)
	des [5]float64 // desired marker positions
	inc [5]float64 // per-observation desired-position increments
}

// NewQuantileSketch returns a sketch for quantile p in (0, 1), e.g. 0.99
// for the P99.
func NewQuantileSketch(p float64) *QuantileSketch {
	if p <= 0 || p >= 1 {
		panic("stats: quantile out of (0, 1)")
	}
	s := &QuantileSketch{p: p}
	s.des = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
	s.inc = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return s
}

// P returns the quantile the sketch targets.
func (s *QuantileSketch) P() float64 { return s.p }

// Count returns the number of observations folded in.
func (s *QuantileSketch) Count() uint64 { return s.n }

// Add folds in one observation.
func (s *QuantileSketch) Add(x float64) {
	if s.n < 5 {
		// Insertion sort into the initial marker set.
		i := int(s.n)
		for i > 0 && s.q[i-1] > x {
			s.q[i] = s.q[i-1]
			i--
		}
		s.q[i] = x
		s.n++
		if s.n == 5 {
			for j := range s.pos {
				s.pos[j] = float64(j + 1)
			}
		}
		return
	}

	// Locate the cell containing x, extending the extremes.
	var k int
	switch {
	case x < s.q[0]:
		s.q[0] = x
		k = 0
	case x >= s.q[4]:
		s.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < s.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		s.pos[i]++
	}
	for i := range s.des {
		s.des[i] += s.inc[i]
	}
	s.n++

	// Adjust the interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := s.des[i] - s.pos[i]
		if (d >= 1 && s.pos[i+1]-s.pos[i] > 1) || (d <= -1 && s.pos[i-1]-s.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1.0
			}
			qn := s.parabolic(i, sign)
			if qn <= s.q[i-1] || qn >= s.q[i+1] {
				qn = s.linear(i, sign)
			}
			s.q[i] = qn
			s.pos[i] += sign
		}
	}
}

// parabolic is the P² piecewise-parabolic marker update.
func (s *QuantileSketch) parabolic(i int, d float64) float64 {
	return s.q[i] + d/(s.pos[i+1]-s.pos[i-1])*
		((s.pos[i]-s.pos[i-1]+d)*(s.q[i+1]-s.q[i])/(s.pos[i+1]-s.pos[i])+
			(s.pos[i+1]-s.pos[i]-d)*(s.q[i]-s.q[i-1])/(s.pos[i]-s.pos[i-1]))
}

// linear is the fallback when the parabola would cross a neighbor.
func (s *QuantileSketch) linear(i int, d float64) float64 {
	j := i + int(d)
	return s.q[i] + d*(s.q[j]-s.q[i])/(s.pos[j]-s.pos[i])
}

// Value returns the current quantile estimate: exact for up to five
// observations (by interpolation over the sorted set), the P² middle marker
// after. NaN before any observation.
func (s *QuantileSketch) Value() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	if s.n < 5 {
		// Exact small-sample quantile over the sorted prefix, matching
		// Percentile's linear interpolation.
		return sortedQuantile(s.q[:s.n], s.p*100)
	}
	return s.q[2]
}
