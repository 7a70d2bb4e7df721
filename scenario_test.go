package greenenvy

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"greenenvy/internal/scenario"
)

// loadSpec parses one of the shipped example specs.
func loadSpec(t *testing.T, path string) scenario.Spec {
	t.Helper()
	spec, err := scenario.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// runCompiled compiles a spec and runs it.
func runCompiled(t *testing.T, spec scenario.Spec, o Options) Result {
	t.Helper()
	e, err := scenario.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestScenarioUnequalRTTExample keeps the shipped heterogeneous-RTT example
// runnable end to end: it must parse, compile, run at tiny scale, and
// actually give the two senders different access delays.
func TestScenarioUnequalRTTExample(t *testing.T) {
	spec := loadSpec(t, "examples/scenarios/unequal-rtt.json")
	c, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Topology.AccessDelaysUs) != 2 || c.Topology.AccessDelaysUs[0] == c.Topology.AccessDelaysUs[1] {
		t.Fatalf("unequal-rtt example lost its heterogeneous delays: %v", c.Topology.AccessDelaysUs)
	}
	res := runCompiled(t, spec, Options{Reps: 2, Scale: 0.001, Seed: 1})
	if res.Table() == "" {
		t.Fatal("empty table")
	}
	if svg, err := res.SVG(); err != nil || len(svg) == 0 {
		t.Fatalf("svg: %v", err)
	}
}

// TestScenarioCacheIDsPinned pins the cache lineage of every shipped spec.
// A spec's cache id is the digest of its canonical physics, so any change
// to the Spec schema, its defaults or its JSON encoding that moves one of
// these ids orphans that spec's cached repetitions. Such a change must be
// deliberate and update the constant here.
func TestScenarioCacheIDsPinned(t *testing.T) {
	aqm, ok := scenario.Builtin("aqm-matrix")
	if !ok {
		t.Fatal("no aqm-matrix builtin")
	}
	for _, c := range []struct {
		name string
		spec scenario.Spec
		want string
	}{
		{"aqm-matrix", aqm, "scenario/29fbd9408f04"},
		{"unequal-rtt.json", loadSpec(t, "examples/scenarios/unequal-rtt.json"), "scenario/a9042a4cf754"},
	} {
		got, err := c.spec.CacheID()
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s: cache id %s, want %s", c.name, got, c.want)
		}
	}
}

// TestScenarioRetitleKeepsPhysics runs each shipped spec cold beside a
// twin with a new Name, Description, Section and Order. The two must
// write byte-identical cache directories: presentation renames and lists
// an experiment, and must never reach a simulation input.
func TestScenarioRetitleKeepsPhysics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	aqm, ok := scenario.Builtin("aqm-matrix")
	if !ok {
		t.Fatal("no aqm-matrix builtin")
	}
	for _, c := range []struct {
		name string
		spec scenario.Spec
	}{
		{"aqm-matrix", aqm},
		{"unequal-rtt.json", loadSpec(t, "examples/scenarios/unequal-rtt.json")},
	} {
		t.Run(c.name, func(t *testing.T) {
			twin := c.spec
			twin.Name = c.spec.Name + "-retitled"
			twin.Description = "a new description"
			twin.Section = "§0"
			twin.Order = c.spec.Order + 1000
			specDir, twinDir := t.TempDir(), t.TempDir()
			runCompiled(t, c.spec, Options{Reps: 1, Scale: 0.001, Seed: 1, CacheDir: specDir})
			runCompiled(t, twin, Options{Reps: 1, Scale: 0.001, Seed: 1, CacheDir: twinDir})
			want, got := cacheFiles(t, specDir), cacheFiles(t, twinDir)
			if len(want) == 0 {
				t.Fatal("the spec wrote no cache entry")
			}
			if len(got) != len(want) {
				t.Errorf("the retitled twin wrote %d cache entries, the spec %d", len(got), len(want))
			}
			for path, b := range want {
				if !bytes.Equal(got[path], b) {
					t.Errorf("cache entry %s differs between the spec and its retitled twin", path)
				}
			}
		})
	}
}

// TestRegisterScenarioFileRejectsBadFiles drives the one entry point
// through which runtime input (greenbench -scenario) reaches the registry.
// Each bad file must come back as an error naming what is wrong, never a
// panic, and leave the registry as it was. No valid file is registered
// here: TestRegistryMetadata pins the registry's exact contents.
func TestRegisterScenarioFileRejectsBadFiles(t *testing.T) {
	spec := func(name, cca string) string {
		return `{"name": "` + name + `", "topology": {"kind": "dumbbell"}, "flows": [{"sender": 0, "cca": "` + cca + `", "gbit": 1}]}`
	}
	dir := t.TempDir()
	for _, c := range []struct{ file, content, want string }{
		{"fig1.json", spec("fig1", "cubic"), "collides"},
		{"five.json", spec("5", "cubic"), "collides"},
		{"srpt.json", spec("srpt", "cubic"), "collides"},
		{"garbled.json", `{"name": `, "parse json"},
		{"spec.yaml", spec("yaml-spec", "cubic"), "unsupported extension"},
		{"spec.toml", "name = \"toml-spec\"\n[topology]\nkind = \"dumbbell\"\n", "unsupported extension"},
		{"bad-cca.json", spec("bad-cca", "no-such-cca"), `unknown cca "no-such-cca"`},
	} {
		t.Run(c.file, func(t *testing.T) {
			path := filepath.Join(dir, c.file)
			if err := os.WriteFile(path, []byte(c.content), 0o644); err != nil {
				t.Fatal(err)
			}
			before := ExperimentNames()
			name, err := RegisterScenarioFile(path)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("RegisterScenarioFile = %q, %v; want an error mentioning %q", name, err, c.want)
			}
			if after := ExperimentNames(); !slices.Equal(after, before) {
				t.Errorf("registry changed from %v to %v", before, after)
			}
		})
	}
}
