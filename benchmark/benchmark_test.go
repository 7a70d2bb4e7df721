package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json to this program: the
// same workloads in the same order, and the same metrics with the same
// units, directions and bounds, every name well-formed and used once.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}

	var keys struct {
		EndToEnd []map[string]json.RawMessage `json:"end_to_end"`
		PerLayer []map[string]json.RawMessage `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	exactKeys := func(kind string, ms []map[string]json.RawMessage, want ...string) {
		for i, m := range ms {
			ok := len(m) == len(want)
			for _, k := range want {
				_, has := m[k]
				ok = ok && has
			}
			if !ok {
				t.Errorf("%s metric %d has keys %v, want exactly %v", kind, i, reflect.ValueOf(m).MapKeys(), want)
			}
		}
	}
	exactKeys("end_to_end", keys.EndToEnd, "name", "unit", "better", "bound")
	exactKeys("per_layer", keys.PerLayer, "name", "unit", "better")

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q (%s), program %q (%s)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\nBENCHMARK.json %+v\nprogram        %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer()) {
		t.Errorf("per_layer:\nBENCHMARK.json %+v\nprogram        %+v", spec.PerLayer, perLayer())
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not [A-Za-z0-9_.-]+ of at most 64", kind, n)
		}
		if seen[n] {
			t.Errorf("%s name %q used twice", kind, n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		name("end_to_end", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: better %q, bound %v", m.Name, m.Better, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
	}
	for _, m := range spec.PerLayer {
		name("per_layer", m.Name)
		if m.Bound != 0 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per_layer %s: better %q, bound %v", m.Name, m.Better, m.Bound)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}
