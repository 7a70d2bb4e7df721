package main

import (
	"context"
	"os"
	"strings"
	"testing"
)

// TestMain shrinks every workload to a tiny Options override, in this
// process and in the children it spawns (the test binary re-executed), so
// the protocol tests run in seconds.
func TestMain(m *testing.M) {
	tiny := map[string]float64{"fig5": 0.0001, "fattree-incast": 0.002, "workload-scale": 0.0002}
	for i := range workloads {
		for j := range workloads[i].Exps {
			x := &workloads[i].Exps[j]
			x.Opts.Reps, x.Opts.Scale, x.Golden = 1, tiny[x.Name], ""
		}
	}
	if env, ok := os.LookupEnv(childEnv); ok {
		os.Exit(runChild(env))
	}
	os.Exit(m.Run())
}

func testEnv(t *testing.T) runEnv {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return runEnv{exe: exe, work: t.TempDir(), traceDir: t.TempDir()}
}

func TestChildProtocol(t *testing.T) {
	env := testEnv(t)
	for _, tc := range []struct {
		workload string
		children int // processes started besides the set-up probes
	}{
		{"sweep", minChildren},
		{"replay", 1 + minChildren}, // the cold fill, then the reads
	} {
		w, _ := lookupWorkload(tc.workload)
		res, err := runEndToEnd(context.Background(), env, w, 2, 0.001)
		if err != nil {
			t.Fatalf("%s: %v", tc.workload, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted != setupProbes+tc.children {
			t.Errorf("%s: correct=%v attempted=%d failed=%d, want all %d children to pass",
				tc.workload, res.Correct, res.Attempted, res.Failed, setupProbes+tc.children)
		}
		for _, m := range endToEnd {
			v, ok := res.Metrics[m.Name]
			if !ok || v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", tc.workload, m.Name, v, m.Unit)
			}
		}
	}
}

func TestChildFailuresAreCounted(t *testing.T) {
	env := testEnv(t)
	if _, err := spawn(context.Background(), env.exe, childSpec{Workload: "no-such-workload", Seed: 1}); err == nil {
		t.Error("a child for an unknown workload succeeded")
	}

	// A golden the tables cannot match fails every child of a seed-1 run.
	w, _ := lookupWorkload("incast")
	w.Exps = append([]expRun(nil), w.Exps...)
	w.Exps[0].Golden = strings.Repeat("0", 64)
	if _, err := runEndToEnd(context.Background(), env, w, 1, 0.001); err == nil {
		t.Error("a run whose tables miss the golden reported a result")
	}
	// Other seeds check determinism only.
	res, err := runEndToEnd(context.Background(), env, w, 3, 0.001)
	if err != nil || !res.Correct {
		t.Errorf("seed 3 run: %+v, %v", res, err)
	}
}
