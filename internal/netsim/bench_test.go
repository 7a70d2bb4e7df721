package netsim_test

// Packet-path microbenchmarks. The bodies live in internal/perf so that
// cmd/simbench can run the identical code and record the results in
// BENCH_sim.json; these wrappers expose them to `go test -bench`.

import (
	"testing"

	"greenenvy/internal/perf"
)

func BenchmarkLinkDataPacket(b *testing.B) { perf.BenchLinkDataPacket(b) }

func BenchmarkLinkPureAck(b *testing.B) { perf.BenchLinkPureAck(b) }

func BenchmarkDropTailQueue(b *testing.B) { perf.BenchDropTailQueue(b) }

func BenchmarkDRRQueue(b *testing.B) { perf.BenchDRRQueue(b) }

func BenchmarkDumbbellTransfer(b *testing.B) { perf.BenchDumbbellTransfer(b) }

func BenchmarkFatTreeBuild(b *testing.B) { perf.BenchFatTreeBuild(b) }

func BenchmarkFatTreeIncast(b *testing.B) { perf.BenchFatTreeIncast(b) }
