package main

import (
	"math"
	"sort"
)

// metricDef declares one metric the way BENCHMARK.json does. Every metric
// has a direction; Bound is set for end-to-end metrics only.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a greenbench user pays for, measured per child
// process with tracing off. Bound is the share of the parent commit's median
// by which a metric may worsen before a change counts as a regression. The
// host-time bounds are the widest allowed: on the shared 2-CPU container
// they were set on, the host's speed moves by up to 30% within seconds and
// about twofold in rare episodes, which no amount of work per run averages
// out (see doc.go). The allocation counts vary only with the seed's inputs.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "mallocs", Unit: "count", Better: "lower", Bound: 0.15},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the one-line JSON verdict of a benchmark run.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// quartiles returns the first quartile, median and third quartile of xs by
// the "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// statistic the run-to-run spread is judged by. One sample is its own
// quartiles; none gives NaN.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	n := len(d)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}
