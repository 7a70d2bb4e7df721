// Command simbench runs the simulator's hot-path microbenchmarks (the same
// bodies `go test -bench` runs in internal/sim and internal/netsim, shared
// via internal/perf) and records the results as JSON so the repo keeps a
// perf trajectory from PR to PR.
//
// Usage:
//
//	simbench                      # print results to stdout
//	simbench -o BENCH_sim.json    # write a result file
//	simbench -benchtime 2s -label post-pooling -o BENCH_sim.json
//
// When -o names an existing file containing a previous run, the new entry is
// appended to its history rather than replacing it, so before/after pairs
// live side by side in one file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"greenenvy/internal/perf"
)

// benchResult is one benchmark's outcome in a form stable enough to diff
// across commits.
type benchResult struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// benchRun is one invocation of simbench: environment plus all results.
type benchRun struct {
	Label     string        `json:"label,omitempty"`
	Date      string        `json:"date"`
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	Benchtime string        `json:"benchtime"`
	Results   []benchResult `json:"results"`
}

// benchFile is the on-disk shape of BENCH_sim.json: a history of runs,
// oldest first.
type benchFile struct {
	Runs []benchRun `json:"runs"`
}

var benchmarks = []struct {
	name string
	fn   func(*testing.B)
}{
	{"EngineEventLoop", perf.BenchEngineEventLoop},
	{"TimerRearm", perf.BenchTimerRearm},
	{"LinkDataPacket", perf.BenchLinkDataPacket},
	{"LinkPureAck", perf.BenchLinkPureAck},
	{"DropTailQueue", perf.BenchDropTailQueue},
	{"DRRQueue", perf.BenchDRRQueue},
	{"SweepCacheWarm", perf.BenchSweepCacheWarm},
	{"SweepCacheCold", perf.BenchSweepCacheCold},
	{"DumbbellTransfer", perf.BenchDumbbellTransfer},
	{"WorkloadChurn", perf.BenchWorkloadChurn},
	{"WorkloadScaleStreaming", perf.BenchWorkloadScaleStreaming},
	{"FatTreeBuild", perf.BenchFatTreeBuild},
	{"FatTreeIncast", perf.BenchFatTreeIncast},
	{"FlowSetup", perf.BenchFlowSetup},
}

func main() {
	out := flag.String("o", "", "append results to this JSON file (stdout if empty)")
	benchtime := flag.Duration("benchtime", time.Second, "minimum time per benchmark")
	label := flag.String("label", "", "free-form label stored with this run (e.g. a commit or PR tag)")
	flag.Parse()

	// testing.Benchmark honours -test.benchtime; register the testing
	// package's flags and forward ours so each body runs long enough to
	// settle.
	testing.Init()
	if err := flag.Lookup("test.benchtime").Value.Set(benchtime.String()); err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}

	run := benchRun{
		Label:     *label,
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Benchtime: benchtime.String(),
	}
	for _, bm := range benchmarks {
		fmt.Fprintf(os.Stderr, "running %-18s ... ", bm.name)
		r := testing.Benchmark(bm.fn)
		res := benchResult{
			Name:        bm.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if len(r.Extra) > 0 {
			res.Metrics = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				res.Metrics[k] = v
			}
		}
		run.Results = append(run.Results, res)
		fmt.Fprintf(os.Stderr, "%10.1f ns/op  %4d allocs/op\n", res.NsPerOp, res.AllocsPerOp)
	}

	var file benchFile
	if *out != "" {
		if prev, err := os.ReadFile(*out); err == nil {
			if err := json.Unmarshal(prev, &file); err != nil {
				fmt.Fprintf(os.Stderr, "simbench: %s exists but is not a result file: %v\n", *out, err)
				os.Exit(1)
			}
		}
	}
	file.Runs = append(file.Runs, run)

	enc, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d runs)\n", *out, len(file.Runs))
}
