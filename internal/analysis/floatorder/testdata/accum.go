// Package testdata exercises the floatorder analyzer. Each // want
// comment holds a regexp the diagnostic reported on that line must match.
package testdata

import "sort"

func folds(m map[string]float64) (float64, float64, float64) {
	var sum float64
	prod := 1.0
	var diff float64
	for _, v := range m {
		sum += v        // want `float accumulation ordered by map iteration`
		prod = prod * v // want `float accumulation ordered by map iteration`
		diff -= v       // want `float accumulation ordered by map iteration`
	}
	return sum, prod, diff
}

func collects(m map[int]float64) []float64 {
	var derived []float64
	var vals []float64
	buckets := map[int][]float64{}
	for k, v := range m {
		derived = append(derived, v*2)       // want `derived float collected in map-iteration order`
		vals = append(vals, v)               // bare value: collect-then-sort, allowed
		buckets[k] = append(buckets[k], v*2) // per-key bucket: order-independent, allowed
	}
	_, _ = vals, buckets
	return derived
}

func integersAreFine(m map[string]int) int {
	// Integer addition is associative: reordering cannot change the result.
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func sortedFold(m map[string]float64) float64 {
	// The blessed idiom: the fold runs over sorted keys, not the map.
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sum := 0.0
	for _, k := range keys {
		sum += m[k]
	}
	return sum
}
