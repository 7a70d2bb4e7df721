package testbed_test

// Flow-setup and flow-churn microbenchmarks. The bodies live in
// internal/perf so that cmd/simbench can run the identical code and record
// the results in BENCH_sim.json; these wrappers expose them to `go test
// -bench`.

import (
	"testing"

	"greenenvy/internal/perf"
)

func BenchmarkFlowSetup(b *testing.B) { perf.BenchFlowSetup(b) }

func BenchmarkWorkloadChurn(b *testing.B) { perf.BenchWorkloadChurn(b) }

func BenchmarkWorkloadScaleStreaming(b *testing.B) { perf.BenchWorkloadScaleStreaming(b) }
