package scenario

import (
	"reflect"
	"strings"
	"testing"
)

// minimalMatrix is an aqm-matrix spec with every optional field omitted.
const minimalMatrix = `{
  "name": "t",
  "preset": "aqm-matrix",
  "topology": {"kind": "dumbbell"},
  "sweep": {"gbit_per_flow": 2.5, "ccas": ["cubic", "reno"], "queues": [{"kind": "droptail"}, {"kind": "codel"}]}
}`

// explicitMatrix spells out every default minimalMatrix leaves implicit.
// The two must canonicalize — and digest — identically.
const explicitMatrix = `{
  "name": "t",
  "preset": "aqm-matrix",
  "topology": {
    "kind": "dumbbell",
    "senders": 2,
    "bottleneck_bps": 10000000000,
    "access_bps": 10000000000,
    "bonded_links": 2,
    "link_delay_us": 5.0,
    "switch_delay_us": 1.0,
    "buffer_bytes": 1048576
  },
  "sweep": {
    "gbit_per_flow": 2.5,
    "ccas": ["cubic", "reno"],
    "queues": [
      {"kind": "droptail"},
      {"kind": "codel", "target_us": 50.0, "interval_us": 500.0}
    ]
  }
}`

func mustParseJSON(t *testing.T, s string) Spec {
	t.Helper()
	spec, err := ParseJSON([]byte(s))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func digestOf(t *testing.T, spec Spec) string {
	t.Helper()
	d, err := spec.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDigestStability: every spelling of the same physics — omitted vs
// explicit defaults — lands on one digest, so they share one cache lineage.
func TestDigestStability(t *testing.T) {
	j := mustParseJSON(t, minimalMatrix)
	e := mustParseJSON(t, explicitMatrix)
	dj, de := digestOf(t, j), digestOf(t, e)
	if dj != de {
		cj, _ := j.Canonical()
		ce, _ := e.Canonical()
		t.Fatalf("digest differs between minimal (%s) and explicit (%s) defaults\nminimal canonical: %+v\nexplicit canonical: %+v", dj, de, cj, ce)
	}

	id, err := j.CacheID()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(id, CachePrefix) || len(id) != len(CachePrefix)+12 {
		t.Fatalf("CacheID %q: want %q + 12 hex digits", id, CachePrefix)
	}
}

// literalFlows is a literal-flows spec with one flow and one load, so the
// digest audit has a Flows and a Loads entry to edit.
const literalFlows = `{
  "name": "t",
  "topology": {"kind": "dumbbell"},
  "flows": [{"cca": "cubic", "gbit": 1}],
  "loads": [{"fraction": 0.5}]
}`

// TestDigestAuditsSpecFields is the spec digest's key audit, built like the
// root package's TestSweepKeyAuditsOptionsFields: every Spec field must be
// classified as physics (it can change a simulated result, so it MUST move
// Digest) or presentation (it only names and lists the experiment, so it
// must NOT move Digest: retitling keeps the cached repetitions). A field
// added to Spec without a classification here fails the test, and so does
// a physics field that digestPayload leaves out.
func TestDigestAuditsSpecFields(t *testing.T) {
	bases := map[string]string{"matrix": minimalMatrix, "flows": literalFlows}
	type edit struct {
		base string
		mut  func(*Spec)
	}
	// Each edit turns a valid base into another valid spec. Preset cannot
	// change alone: switching it swaps the literal flows for a sweep.
	physics := map[string][]edit{
		"Preset": {{"flows", func(s *Spec) {
			s.Preset, s.Flows = PresetAQMMatrix, nil
			s.Sweep = &Sweep{GbitPerFlow: 1, CCAs: []string{"cubic"}, Queues: []QueueSpec{{Kind: "droptail"}}}
		}}},
		"Topology": {
			{"matrix", func(s *Spec) { s.Topology.BottleneckBps = 1_000_000_000 }},
			{"matrix", func(s *Spec) { s.Topology.LinkDelayUs = 100 }},
			{"matrix", func(s *Spec) { s.Topology.AccessDelaysUs = []float64{5, 250} }},
			{"flows", func(s *Spec) { s.Topology.Queue = QueueSpec{Kind: "codel"} }},
		},
		"Flows": {
			{"flows", func(s *Spec) { s.Flows[0].CCA = "reno" }},
			{"flows", func(s *Spec) { s.Flows[0].Gbit = 2 }},
			{"flows", func(s *Spec) { s.Flows = append(s.Flows, Flow{Sender: 1, Gbit: 1}) }},
		},
		"Loads": {
			{"flows", func(s *Spec) { s.Loads[0].Fraction = 0.25 }},
			{"flows", func(s *Spec) { s.Loads = nil }},
		},
		"Sweep": {
			{"matrix", func(s *Spec) { s.Sweep.GbitPerFlow = 20 }},
			{"matrix", func(s *Spec) { s.Sweep.CCAs = []string{"cubic", "bbr"} }},
			{"matrix", func(s *Spec) { s.Sweep.Queues = []QueueSpec{{Kind: "droptail"}} }},
			{"matrix", func(s *Spec) { s.Sweep.Queues = []QueueSpec{{Kind: "droptail"}, {Kind: "codel", TargetUs: 100}} }},
		},
	}
	presentation := map[string]func(*Spec){
		"Name":        func(s *Spec) { s.Name = "a-completely-different-title" },
		"Description": func(s *Spec) { s.Description = "new words" },
		"Section":     func(s *Spec) { s.Section = "§9" },
		"Order":       func(s *Spec) { s.Order = 999 },
	}

	rt := reflect.TypeOf(Spec{})
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		_, ph := physics[name]
		_, pr := presentation[name]
		if ph == pr {
			t.Fatalf("Spec.%s is not classified (or doubly classified) in the digest audit: "+
				"decide whether it can change a result and add it to exactly one map", name)
		}
	}
	if rt.NumField() != len(physics)+len(presentation) {
		t.Fatalf("audit lists %d fields, Spec has %d", len(physics)+len(presentation), rt.NumField())
	}

	want := map[string]string{}
	for base, src := range bases {
		want[base] = digestOf(t, mustParseJSON(t, src))
	}
	for name, edits := range physics {
		for i, e := range edits {
			s := mustParseJSON(t, bases[e.base])
			e.mut(&s)
			if digestOf(t, s) == want[e.base] {
				t.Errorf("physics field %s: edit %d of the %s spec does not move the digest", name, i, e.base)
			}
		}
	}
	for name, mutate := range presentation {
		for base, src := range bases {
			s := mustParseJSON(t, src)
			mutate(&s)
			if digestOf(t, s) != want[base] {
				t.Errorf("presentation field %s moves the %s spec's digest (retitling would orphan its cache)", name, base)
			}
		}
	}
}

// TestCanonicalDoesNotMutateCaller: canonicalization returns a defaulted
// copy; the input spec's slices must be left untouched.
func TestCanonicalDoesNotMutateCaller(t *testing.T) {
	spec := Spec{
		Name:     "t",
		Topology: Topology{Kind: KindDumbbell},
		Flows:    []Flow{{Gbit: 1}, {Gbit: 2}},
	}
	if _, err := spec.Canonical(); err != nil {
		t.Fatal(err)
	}
	if spec.Flows[0].CCA != "" {
		t.Errorf("Canonical wrote the default CCA %q back into the caller's flow", spec.Flows[0].CCA)
	}
}

// TestInvalidSpecs: every malformed spec is rejected, by the parser or the
// compiler, with an error that names the failing field, never silently
// defaulted.
func TestInvalidSpecs(t *testing.T) {
	cases := []struct {
		name, spec, want string
	}{
		{"missing name", `{"topology":{"kind":"dumbbell"},"flows":[{"gbit":1}]}`, "needs a name"},
		{"unknown preset", `{"name":"t","preset":"nope","topology":{"kind":"dumbbell"}}`, `unknown preset "nope"`},
		{"missing topology kind", `{"name":"t","flows":[{"gbit":1}]}`, "topology needs a kind"},
		{"unknown topology kind", `{"name":"t","topology":{"kind":"ring"},"flows":[{"gbit":1}]}`, `unknown topology kind "ring"`},
		{"no flows", `{"name":"t","topology":{"kind":"dumbbell"}}`, "has no flows"},
		{"unknown queue kind", `{"name":"t","topology":{"kind":"dumbbell","queue":{"kind":"red"}},"flows":[{"gbit":1}]}`, `unknown queue kind "red"`},
		{"queue params on droptail", `{"name":"t","topology":{"kind":"dumbbell","queue":{"kind":"droptail","target_us":50}},"flows":[{"gbit":1}]}`, "takes no AQM parameters"},
		{"pie with quantum", `{"name":"t","topology":{"kind":"dumbbell","queue":{"kind":"pie","quantum":9216}},"flows":[{"gbit":1}]}`, "pie uses target_us/tupdate_us"},
		{"both sizes", `{"name":"t","topology":{"kind":"dumbbell"},"flows":[{"gbit":1,"bytes":5}]}`, "exactly one of gbit"},
		{"neither size", `{"name":"t","topology":{"kind":"dumbbell"},"flows":[{}]}`, "exactly one of gbit"},
		{"unknown cca", `{"name":"t","topology":{"kind":"dumbbell"},"flows":[{"gbit":1,"cca":"quic"}]}`, `unknown cca "quic"`},
		{"sender out of range", `{"name":"t","topology":{"kind":"dumbbell"},"flows":[{"gbit":1,"sender":7}]}`, "sender 7 out of range"},
		{"weight without drr", `{"name":"t","topology":{"kind":"dumbbell"},"flows":[{"gbit":1,"weight":0.5}]}`, "weight needs the drr queue"},
		{"self chain", `{"name":"t","topology":{"kind":"dumbbell"},"flows":[{"gbit":1,"after":0}]}`, "must name another flow"},
		{"aqm-matrix on fattree", `{"name":"t","preset":"aqm-matrix","topology":{"kind":"fattree","k":4},"sweep":{"gbit_per_flow":1,"ccas":["cubic"],"queues":[{"kind":"pie"}]}}`, "needs the dumbbell topology"},
		{"odd arity", `{"name":"t","topology":{"kind":"fattree","k":5},"flows":[{"gbit":1,"src":0,"dst":1}]}`, "must be even"},
		{"fattree without k", `{"name":"t","topology":{"kind":"fattree"},"flows":[{"gbit":1,"src":0,"dst":1}]}`, "must be even and >= 4, got 0"},
		{"sweep preset with flows", `{"name":"t","preset":"aqm-matrix","topology":{"kind":"dumbbell"},"flows":[{"gbit":1}],"sweep":{"gbit_per_flow":1,"ccas":["cubic"],"queues":[{"kind":"pie"}]}}`, "generates its own flows"},
		{"sweep preset with queue", `{"name":"t","preset":"aqm-matrix","topology":{"kind":"dumbbell","queue":{"kind":"codel"}},"sweep":{"gbit_per_flow":1,"ccas":["cubic"],"queues":[{"kind":"pie"}]}}`, "owns the queue discipline"},
		{"aqm-matrix stray cca", `{"name":"t","preset":"aqm-matrix","topology":{"kind":"dumbbell"},"sweep":{"cca":"cubic","gbit_per_flow":1,"ccas":["cubic"],"queues":[{"kind":"pie"}]}}`, `unknown field "cca"`},
		{"aqm-matrix unknown cca", `{"name":"t","preset":"aqm-matrix","topology":{"kind":"dumbbell"},"sweep":{"gbit_per_flow":1,"ccas":["quic"],"queues":[{"kind":"pie"}]}}`, `sweep.ccas[0]: unknown cca "quic"`},
		{"load out of range", `{"name":"t","topology":{"kind":"dumbbell"},"flows":[{"gbit":1}],"loads":[{"fraction":1.5}]}`, "outside (0, 1]"},
		{"dumbbell with fattree fields", `{"name":"t","topology":{"kind":"dumbbell","k":4},"flows":[{"gbit":1}]}`, "does not take fat-tree fields"},
		{"too many senders", `{"name":"huge","topology":{"kind":"dumbbell","senders":1125899906842624},"flows":[{"cca":"cubic","bytes":1000}]}`, "senders 1125899906842624 exceeds the 65536-host bound"},
		{"fat-tree too large", `{"name":"t","topology":{"kind":"fattree","k":2097152},"flows":[{"bytes":1000,"src":0,"dst":1}]}`, "arity k=2097152 exceeds 64"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec, err := ParseJSON([]byte(c.spec))
			if err == nil {
				_, err = Compile(spec)
			}
			if err == nil {
				t.Fatalf("Compile accepted an invalid spec: %s", c.spec)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name the failure (want substring %q)", err, c.want)
			}
			if !strings.HasPrefix(err.Error(), "scenario: ") {
				t.Fatalf("error %q is missing the package prefix", err)
			}
		})
	}
}

// TestParseJSONRejectsUnknownFields: a typo'd key must fail loudly.
func TestParseJSONRejectsUnknownFields(t *testing.T) {
	if _, err := ParseJSON([]byte(`{"name":"t","topolgy":{"kind":"dumbbell"}}`)); err == nil {
		t.Fatal("misspelled key accepted")
	}
	if _, err := ParseJSON([]byte(`{"name":"t"} {"second":"doc"}`)); err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Fatalf("trailing document accepted: %v", err)
	}
}

// TestBuiltins: the shipped specs compile, and lookups are total.
func TestBuiltins(t *testing.T) {
	for _, name := range BuiltinNames() {
		spec, ok := Builtin(name)
		if !ok {
			t.Fatalf("BuiltinNames lists %q but Builtin does not return it", name)
		}
		if spec.Name != name {
			t.Errorf("builtin %q names itself %q", name, spec.Name)
		}
		e, err := Compile(spec)
		if err != nil {
			t.Errorf("builtin %q does not compile: %v", name, err)
		}
		if e.Name != name || e.Description == "" || e.Section == "" || e.Run == nil {
			t.Errorf("builtin %q compiled with incomplete metadata: %+v", name, e)
		}
	}
	if _, ok := Builtin("no-such-spec"); ok {
		t.Fatal("Builtin returned a spec for an unknown name")
	}
}

// TestHostBoundIsInclusive: the largest topologies within the host bound
// still compile.
func TestHostBoundIsInclusive(t *testing.T) {
	for _, js := range []string{
		`{"name":"t","topology":{"kind":"dumbbell","senders":65536},"flows":[{"bytes":1000,"sender":65535}]}`,
		`{"name":"t","topology":{"kind":"fattree","k":64},"flows":[{"bytes":1000,"src":0,"dst":65535}]}`,
	} {
		spec, err := ParseJSON([]byte(js))
		if err == nil {
			_, err = Compile(spec)
		}
		if err != nil {
			t.Errorf("%s: %v", js, err)
		}
	}
}
