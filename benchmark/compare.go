package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// Verdicts of a base → head comparison of one workload × metric.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// classify compares the per-run values of one metric on two sets. A median
// that moved by more than the bound is better or worse. When either set's
// spread (interquartile distance over median) is wider than the bound the
// comparison cannot resolve a change of that size, so the verdict is
// unresolved — unless every head run beats every base run.
func classify(base, head []float64, m metricDef) string {
	lowerBetter := m.Better != "higher"
	beats := func(h, b float64) bool { return (h < b) == lowerBetter && h != b }
	if spread(base) > m.Bound || spread(head) > m.Bound {
		for _, h := range head {
			for _, b := range base {
				if !beats(h, b) {
					return unresolved
				}
			}
		}
		return better
	}
	delta := (median(head) - median(base)) / median(base)
	if !lowerBetter {
		delta = -delta
	}
	switch {
	case delta > m.Bound:
		return worse
	case delta < -m.Bound:
		return better
	}
	return unchanged
}

// series holds one set's per-run values for each workload and metric, plus
// its run count and child accounting per workload.
type series struct {
	order                   []string
	values                  map[string]map[string][]float64
	runs, attempted, failed map[string]int
}

func seriesOf(set setFile) series {
	s := series{values: map[string]map[string][]float64{}, runs: map[string]int{}, attempted: map[string]int{}, failed: map[string]int{}}
	for _, r := range set.Runs {
		if s.values[r.Workload] == nil {
			s.order = append(s.order, r.Workload)
			s.values[r.Workload] = map[string][]float64{}
		}
		s.runs[r.Workload]++
		for name, v := range r.Result.Metrics {
			s.values[r.Workload][name] = append(s.values[r.Workload][name], v.Value)
		}
		s.attempted[r.Workload] += r.Result.Attempted
		s.failed[r.Workload] += r.Result.Failed
	}
	return s
}

// printSet summarizes a set: per workload and metric, the median and
// quartiles over its runs, and the share of child processes that failed.
func printSet(w io.Writer, set setFile) {
	units := map[string]string{}
	for _, r := range set.Runs {
		for name, v := range r.Result.Metrics {
			units[name] = v.Unit
		}
	}
	s := seriesOf(set)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tp25\tp75\tn\tspread")
	for _, wl := range s.order {
		var names []string
		for name := range s.values[wl] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			xs := s.values[wl][name]
			q1, q2, q3 := quartiles(xs)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%d\t%.2f%%\n", wl, name, units[name], q2, q1, q3, len(xs), spread(xs)*100)
		}
		fmt.Fprintf(tw, "%s\tfail_frac\tratio\t%.4g\t\t\t%d\t(%d/%d children)\n", wl,
			float64(s.failed[wl])/float64(s.attempted[wl]), s.runs[wl], s.failed[wl], s.attempted[wl])
	}
	tw.Flush()
}

func loadSet(path string) (setFile, error) {
	var set setFile
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// compareSets prints base vs head for every workload × end-to-end metric and
// returns 1 if any pair is worse, unresolved or missing from either set, or
// if head had failures base did not.
func compareSets(basePath, headPath string) int {
	baseSet, err := loadSet(basePath)
	if err == nil {
		var headSet setFile
		if headSet, err = loadSet(headPath); err == nil {
			return printComparison(os.Stdout, seriesOf(baseSet), seriesOf(headSet))
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

func printComparison(w io.Writer, base, head series) int {
	code := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [p25, p75]\thead median [p25, p75]\tchange\tbound\tverdict")
	for _, wl := range base.order {
		for _, m := range endToEnd {
			b, h := base.values[wl][m.Name], head.values[wl][m.Name]
			if len(b) == 0 || len(h) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\tmissing\n", wl, m.Name)
				code = 1
				continue
			}
			v := classify(b, h, m)
			if v == worse || v == unresolved {
				code = 1
			}
			b1, b2, b3 := quartiles(b)
			h1, h2, h3 := quartiles(h)
			fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%+.2f%%\t%.0f%%\t%s\n",
				wl, m.Name, b2, b1, b3, h2, h1, h3, (h2-b2)/b2*100, m.Bound*100, v)
		}
		bf := float64(base.failed[wl]) / float64(max(base.attempted[wl], 1))
		hf := float64(head.failed[wl]) / float64(max(head.attempted[wl], 1))
		verdict := unchanged
		if hf > bf {
			verdict = worse
			code = 1
		}
		fmt.Fprintf(tw, "%s\tfail_frac\t%.4g\t%.4g\t\tany increase\t%s\n", wl, bf, hf, verdict)
	}
	tw.Flush()
	return code
}
