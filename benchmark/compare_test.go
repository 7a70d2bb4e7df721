package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles(xs, n=4)
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestClassify(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	noisy := []float64{8, 10, 12, 9, 11}
	for _, tc := range []struct {
		name       string
		m          metricDef
		base, head []float64
		want       string
	}{
		{"same", lower, steady, []float64{10.02, 9.98, 10, 10.1, 9.95}, unchanged},
		{"slower within the bound", lower, steady, []float64{10.8, 10.9, 10.7, 10.8, 10.85}, unchanged},
		{"slower beyond the bound", lower, steady, []float64{11.5, 11.4, 11.6, 11.5, 11.55}, worse},
		{"faster beyond the bound", lower, steady, []float64{8, 8.1, 7.9, 8, 8.05}, better},
		{"spread wider than the bound", lower, noisy, []float64{9, 11, 13, 10, 12}, unresolved},
		{"noisy head", lower, steady, noisy, unresolved},
		{"noisy, but every head run wins", lower, noisy, []float64{5, 6, 7, 6, 5.5}, better},
		{"higher is better, dropped", higher, steady, []float64{8, 8.1, 7.9, 8, 8.05}, worse},
		{"higher is better, rose", higher, steady, []float64{11.5, 11.4, 11.6, 11.5, 11.55}, better},
	} {
		if got := classify(tc.base, tc.head, tc.m); got != tc.want {
			t.Errorf("%s: classify = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestComparisonFlagsRegressions(t *testing.T) {
	set := func(wall float64, failed int) setFile {
		var s setFile
		for i := 0; i < 5; i++ {
			m := map[string]metricValue{}
			for _, d := range endToEnd {
				m[d.Name] = metricValue{Value: 1 + float64(i)*0.001, Unit: d.Unit}
			}
			m["wall_s"] = metricValue{Value: wall + float64(i)*0.001, Unit: "s"}
			s.Runs = append(s.Runs, setRun{Workload: "sweep", Seed: uint64(i + 1),
				Result: runResult{Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: m}})
		}
		return s
	}
	base := seriesOf(set(2, 0))
	var out bytes.Buffer
	if code := printComparison(&out, base, seriesOf(set(2, 0))); code != 0 {
		t.Errorf("identical sets: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := printComparison(&out, base, seriesOf(set(3, 0))); code != 1 || !strings.Contains(out.String(), worse) {
		t.Errorf("slower head: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := printComparison(&out, base, seriesOf(set(2, 1))); code != 1 {
		t.Errorf("head with failures: exit %d\n%s", code, out.String())
	}
}
