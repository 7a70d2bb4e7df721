package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"

	"greenenvy"
	"greenenvy/internal/cache"
	"greenenvy/internal/netsim"
	"greenenvy/internal/registry"
	"greenenvy/internal/testbed"
	traffic "greenenvy/internal/workload"
)

// TestCellsAreExperimentRepetitions checks that each untraced cell is the
// repetition its experiment runs: the experiment's own cache entry for that
// repetition decodes to the cell's result byte for byte.
func TestCellsAreExperimentRepetitions(t *testing.T) {
	const seed = 5
	for _, tc := range []struct {
		exp   string
		c     cell
		key   func(c cell) cache.Key
		fresh func() any
	}{
		{"fig5", cell{kind: "sweep", seed: seed, scale: 0.0001},
			func(c cell) cache.Key {
				return cache.NewKey("sweep", "cubic", 1500, uint64(50e9*c.scale), repSeed(c.seed))
			},
			func() any { return new(testbed.RunResult) }},
		{"fattree-incast", cell{kind: "incast", seed: seed, scale: 0.002, fanIn: 256},
			func(c cell) cache.Key {
				per := uint64(20*registry.PaperGbit*c.scale) / 256
				id := fmt.Sprintf("fattree-incast/n=256/k=%d/ecmp=%d/serial=false/per=%d/sh=0", netsim.FatTreeArityFor(256), c.seed, per)
				return cache.NewKey("run", id, repSeed(c.seed))
			},
			func() any { return new(testbed.RunResult) }},
		{"workload-scale", cell{kind: "stream", seed: seed, scale: 0.0002},
			func(c cell) cache.Key {
				dist := traffic.Scaled{Dist: traffic.WebSearch(), Factor: 0.01}
				return cache.NewKey("stream", fmt.Sprintf("workload-scale/%s/load=0.5/flows=200/envy", dist.Name()), repSeed(c.seed))
			},
			func() any { return new(testbed.StreamResult) }},
	} {
		dir := t.TempDir()
		e, _ := greenenvy.LookupExperiment(tc.exp)
		if _, err := e.Run(greenenvy.Options{Reps: 1, Scale: tc.c.scale, Seed: seed, CacheDir: dir}); err != nil {
			t.Fatalf("%s: %v", tc.exp, err)
		}
		store, err := cache.Open(dir, registry.VersionStamp())
		if err != nil {
			t.Fatal(err)
		}
		want := tc.fresh()
		if !store.Get(tc.key(tc.c), want) {
			t.Fatalf("%s: the experiment cached no repetition under the cell's key", tc.exp)
		}
		var enc bytes.Buffer
		if err := gob.NewEncoder(&enc).Encode(want); err != nil {
			t.Fatal(err)
		}
		got, err := runCell(tc.c, nil)
		if err != nil {
			t.Fatalf("%s cell: %v", tc.c.kind, err)
		}
		if !bytes.Equal(got.encoded, enc.Bytes()) {
			t.Errorf("%s cell differs from the experiment's repetition", tc.c.kind)
		}
	}
}

// TestTracedCellsAreTransparent checks that the counting wrappers, host
// observers and spans leave every result byte-identical, on the dumbbell, a
// k=4 fat-tree with a DRR port, and the streaming driver.
func TestTracedCellsAreTransparent(t *testing.T) {
	for _, c := range []cell{
		{kind: "sweep", seed: 1, scale: 0.0001},
		{kind: "incast", seed: 3, scale: 0.002, fanIn: 8},
		{kind: "stream", seed: 1, scale: 0.0002},
	} {
		plain, err := runCell(c, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		tr := newTracer()
		traced, err := runCell(c, tr)
		if err != nil {
			t.Fatalf("traced %s: %v", c.kind, err)
		}
		if !bytes.Equal(plain.encoded, traced.encoded) {
			t.Errorf("%s: traced result differs from the untraced one", c.kind)
		}
		k := traced.counts
		if k.pkts == 0 || k.dataPkts == 0 || k.ackPkts == 0 || k.queueOps == 0 || k.events == 0 {
			t.Errorf("%s: traced counters not collected: %+v", c.kind, k)
		}
		if calls, _ := tr.total("testbed.run"); calls != 1 {
			t.Errorf("%s: %d testbed.run spans, want 1", c.kind, calls)
		}
		if c.kind == "stream" && k.nextCalls != 201 { // 200 flows, then the end of the stream
			t.Errorf("stream: %d workload.next spans, want 201", k.nextCalls)
		}
	}
}
