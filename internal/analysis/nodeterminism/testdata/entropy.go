// Package testdata exercises the nodeterminism analyzer. Each // want
// comment holds a regexp the diagnostic reported on that line must match.
package testdata

import (
	crand "crypto/rand"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"
)

func clocks() time.Duration {
	start := time.Now()          // want `time\.Now is nondeterministic`
	time.Sleep(time.Millisecond) // want `time\.Sleep is nondeterministic`
	return time.Since(start)     // want `time\.Since is nondeterministic`
}

func timerValue() func() *time.Timer {
	// A bare reference (no call) is just as nondeterministic.
	f := time.NewTimer // want `time\.NewTimer is nondeterministic`
	return func() *time.Timer { return f(0) }
}

func randomness() (int, error) {
	var b [8]byte
	_, err := crand.Read(b[:]) // want `crypto/rand\.Read is nondeterministic`
	return rand.Intn(6), err   // want `math/rand\.Intn is nondeterministic`
}

func processEntropy() string {
	_ = os.Getpid()          // want `os\.Getpid is nondeterministic`
	return os.Getenv("HOME") // want `os\.Getenv is nondeterministic`
}

func orderedSinks(m map[string]float64) string {
	var b strings.Builder
	total := ""
	var derived []string
	var keys []string
	buckets := map[string][]float64{}
	for k, v := range m {
		fmt.Println(k, v)                  // want `fmt\.Println write inside map iteration`
		b.WriteString(k)                   // want `ordered sink \(strings\.Builder\)`
		total += k                         // want `string concatenation inside map iteration`
		derived = append(derived, k+"!")   // want `append of a derived value inside map iteration`
		keys = append(keys, k)             // bare key: first half of collect-then-sort, allowed
		buckets[k] = append(buckets[k], v) // per-key bucket: order-independent, allowed
	}
	sort.Strings(keys)
	return total + b.String() + strings.Join(derived, ",")
}

// taggedCollect is the sharded engine's arrival-seq idiom: each appended
// element embeds the loop key (its rank), so the slice is canonically
// reorderable after the loop and map order cannot leak into results.
func taggedCollect(m map[int]string) {
	type tagged struct {
		Seq  int
		Item string
	}
	var collected []tagged
	var anon []struct {
		Seq  int
		Item string
	}
	var ptrs []*tagged
	var untagged []tagged
	for k, v := range m {
		collected = append(collected, tagged{Seq: k, Item: v + "!"}) // tagged by the key: reorderable, allowed
		anon = append(anon, struct {
			Seq  int
			Item string
		}{k, v})
		ptrs = append(ptrs, &tagged{Seq: k, Item: v})      // &T{...} form, allowed
		untagged = append(untagged, tagged{Item: v + "!"}) // want `append of a derived value inside map iteration`
	}
	sort.Slice(collected, func(i, j int) bool { return collected[i].Seq < collected[j].Seq })
	_, _, _ = anon, ptrs, untagged
}

func spelledOutConcat(m map[int]string) string {
	s := ""
	for _, v := range m {
		s = s + v // want `string concatenation inside map iteration`
	}
	return s
}

func sortedIteration(m map[string]int) string {
	// The blessed idiom: collect, sort, then build — nothing flagged.
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d;", k, m[k])
	}
	return b.String()
}
