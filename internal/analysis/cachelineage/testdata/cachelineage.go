// Package cachelineage_testdata models the option/spec cache-lineage
// contract with stand-in types; the test supplies a fact table naming
// them (the analyzer matches structs, functions, and carriers by name).
package cachelineage_testdata

import "fmt"

// --- audit 1: Options/goodKey — a fully healthy lineage ----------------

type Options struct {
	Reps    int
	Seed    uint64
	Workers int
	Verbose bool
}

func goodKey(o Options) string {
	return fmt.Sprintf("%d/%d", o.Reps, o.Seed) // ok: exactly the KeyPhysics fields
}

// SimConfig is the physics carrier.
type SimConfig struct {
	Seed    uint64
	Senders int
	Label   string
}

func buildGood(o Options) SimConfig {
	return SimConfig{Seed: o.Seed, Senders: o.Reps} // ok: physics fields may parameterize physics
}

// --- audit 2: Leaky/leakyKey — every failure mode ---------------------

type Leaky struct { // want `Leaky\.Extra has no cache-lineage class in the fact table` `cache-lineage fact table classifies Leaky\.Ghost but the struct has no such field`
	Bytes   int64
	Delay   int64
	Extra   float64 // the seeded mutation: a physics field nobody classified
	Title   string
	Workers int
}

func leakyKey(l Leaky) string { // want `leakyKey misses result-affecting field\(s\) Delay of Leaky`
	return fmt.Sprintf("%d/%s/%d", l.Bytes, l.Title, l.Workers) // want `Leaky field Title is classified Presentation and must not enter leakyKey` `Leaky field Workers is classified Exempt and must not enter leakyKey`
}

func buildLeaky(l Leaky) SimConfig {
	cfg := SimConfig{
		Seed:    uint64(l.Bytes),
		Senders: l.Workers, // want `Leaky field Workers is classified Exempt but flows into physics carrier SimConfig`
		Label:   l.Title,   // want `Leaky field Title is classified Presentation but flows into physics carrier SimConfig`
	}
	cfg.Seed = uint64(l.Workers) // want `Leaky field Workers is classified Exempt but flows into physics carrier SimConfig`
	return cfg
}

// allowedLeak shows the reviewed-exception path.
func allowedLeak(l Leaky) SimConfig {
	//greenvet:allow cachelineage fixture: the label is display-only downstream
	return SimConfig{Label: l.Title}
}
