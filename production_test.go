package greenenvy

import (
	"strings"
	"testing"

	"greenenvy/internal/stats"
)

func TestRunProductionBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	res, err := RunProduction(Options{Reps: 2, Scale: 0.01, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	// 5 algorithms × 2 MTUs.
	if len(res.Cells) != 10 {
		t.Fatalf("cells = %d, want 10", len(res.Cells))
	}
	// Every algorithm completes with positive energy, and MTU 9000 beats
	// 1500 for all of them (the §4.4 result extends to the production
	// set).
	for _, name := range productionSet() {
		e1500 := stats.Mean(res.Cell(name, 1500).EnergyJ)
		e9000 := stats.Mean(res.Cell(name, 9000).EnergyJ)
		if e1500 <= 0 || e9000 <= 0 {
			t.Fatalf("%s has non-positive energy", name)
		}
		if e9000 >= e1500 {
			t.Errorf("%s: MTU 9000 energy %v >= 1500 energy %v", name, e9000, e1500)
		}
	}
	// Swift and HPCC avoid loss entirely at MTU 9000.
	for _, name := range []string{"swift", "hpcc"} {
		if retx := stats.Mean(res.Cell(name, 9000).Retx); retx > 10 {
			t.Errorf("%s retx at 9000 = %v, want ~0", name, retx)
		}
	}
	// HPCC pays a completion-time premium for empty queues.
	hpccFCT := stats.Mean(res.Cell("hpcc", 9000).FCTSecs)
	cubicFCT := stats.Mean(res.Cell("cubic", 9000).FCTSecs)
	if hpccFCT <= cubicFCT {
		t.Errorf("hpcc FCT %v should exceed cubic %v (η=0.95 headroom)", hpccFCT, cubicFCT)
	}
	if !strings.Contains(res.Table(), "swift") || !strings.Contains(res.Table(), "hpcc") {
		t.Fatal("table missing algorithms")
	}
	if res.Cell("nope", 1500) != nil {
		t.Fatal("bogus cell lookup matched")
	}
}

// productionGoldenTable is the sha256 of the production benchmark's table at
// Reps 1, Scale 0.002, Seed 21. fig5 has no INT consumer, so this is the
// golden that covers HPCC's in-band telemetry path: links stamping hops,
// the receiver echoing them on ACKs, the sender's controller keeping the
// previous sample.
const productionGoldenTable = "47b10723437566593c5aad7f6051c5ad8e28450f0698648f59571dda660d0354"

func TestProductionTableGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	res, err := RunProduction(Options{Reps: 1, Scale: 0.002, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	checkTableDigest(t, "production", res.Table(), productionGoldenTable)
}
