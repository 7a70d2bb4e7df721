package cache_test

import (
	"testing"

	"greenenvy/internal/perf"
)

// The bodies live in internal/perf (an external test package here avoids
// the cache → perf → cache import cycle) so cmd/simbench can record the
// same numbers into BENCH_sim.json.

func BenchmarkSweepCacheWarm(b *testing.B) { perf.BenchSweepCacheWarm(b) }
func BenchmarkSweepCacheCold(b *testing.B) { perf.BenchSweepCacheCold(b) }

// TestSweepCacheWarmAllocs gates the warm lookup's allocations, which are
// deterministic: reading, checking and decoding one cached repetition
// through a primed decoder. A fresh gob.Decoder per entry, receiving and
// compiling the result types again, costs over 300.
func TestSweepCacheWarmAllocs(t *testing.T) {
	if got := testing.Benchmark(perf.BenchSweepCacheWarm).AllocsPerOp(); got > 25 {
		t.Fatalf("warm cache lookup: %d allocs/op, want at most 25", got)
	}
}
