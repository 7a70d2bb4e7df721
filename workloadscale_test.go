package greenenvy

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// workloadScaleDigest hashes every measurement of a workload-scale run
// using exact float64 bit patterns: any event-ordering change anywhere in
// the streaming churn driver — pool recycling, admission decisions, sketch
// updates, energy draws — flips the hash.
func workloadScaleDigest(r WorkloadScaleResult) string {
	h := sha256.New()
	put := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(v float64) { put(math.Float64bits(v)) }
	put(uint64(len(r.Points)))
	for _, p := range r.Points {
		h.Write([]byte(p.Dist))
		putF(p.Load)
		put(uint64(p.Flows))
		put(uint64(p.AdmissionWidth))
		putF(p.FairJPerGB)
		putF(p.EnvyJPerGB)
		putF(p.FairP99ms)
		putF(p.EnvyP99ms)
		putF(p.Deferred)
		putF(p.GBMoved)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestWorkloadScaleDigestStableAcrossWorkers is the streaming replay's
// same-seed-same-bytes proof: pooled churn, online admission, and P²
// aggregation must produce byte-identical results for every worker count.
func TestWorkloadScaleDigestStableAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reduced-scale streaming replay twice")
	}
	o := digestOpts()
	ref, err := RunWorkloadScale(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = 4
	res, err := RunWorkloadScale(o)
	if err != nil {
		t.Fatalf("workers=4: %v", err)
	}
	if want, got := workloadScaleDigest(ref), workloadScaleDigest(res); got != want {
		t.Fatalf("workload-scale digest differs under workers=4:\nwant %s\ngot  %s\nthe same-seed-same-bytes contract is broken",
			want, got)
	}
}

// TestWorkloadScaleWarmCacheReplay runs the experiment cold into a fresh
// persistent cache and again warm from it: the warm run must replay every
// repetition from disk (zero misses) and reproduce the table byte for
// byte.
func TestWorkloadScaleWarmCacheReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reduced-scale streaming replay twice")
	}
	o := digestOpts()
	o.CacheDir = t.TempDir()

	cold, err := RunWorkloadScale(o)
	if err != nil {
		t.Fatal(err)
	}
	after := CacheStatsFor(o.CacheDir)
	if after.Puts == 0 {
		t.Fatal("cold run persisted nothing")
	}

	warm, err := RunWorkloadScale(o)
	if err != nil {
		t.Fatal(err)
	}
	final := CacheStatsFor(o.CacheDir)
	if final.Misses != after.Misses {
		t.Fatalf("warm run missed the cache %d times", final.Misses-after.Misses)
	}
	if final.Hits == after.Hits {
		t.Fatal("warm run never hit the cache")
	}
	if cold.Table() != warm.Table() {
		t.Fatalf("warm-cache replay changed the table:\ncold:\n%s\nwarm:\n%s", cold.Table(), warm.Table())
	}
}

// TestWorkloadScaleReportsBothPolicies sanity-checks the result shape: one
// row per (distribution, load) cell with both policies populated and the
// envy rows actually exercising admission control.
func TestWorkloadScaleReportsBothPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reduced-scale streaming replay")
	}
	o := digestOpts()
	o.Reps = 1
	res, err := RunWorkloadScale(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6 {
		t.Fatalf("got %d points, want 6 (2 dists × 3 loads)", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Flows < 200 {
			t.Fatalf("%s/%.1f: %d flows, want >= 200", p.Dist, p.Load, p.Flows)
		}
		if p.AdmissionWidth != 1 {
			t.Fatalf("%s/%.1f: admission width %d, want 1 on the strictly concave default curve", p.Dist, p.Load, p.AdmissionWidth)
		}
		if !(p.FairJPerGB > 0) || !(p.EnvyJPerGB > 0) || !(p.GBMoved > 0) {
			t.Fatalf("%s/%.1f: degenerate energy columns: %+v", p.Dist, p.Load, p)
		}
		if !(p.FairP99ms > 0) || !(p.EnvyP99ms > 0) {
			t.Fatalf("%s/%.1f: degenerate FCT columns: %+v", p.Dist, p.Load, p)
		}
		if p.Deferred == 0 {
			t.Fatalf("%s/%.1f: envy policy deferred nothing", p.Dist, p.Load)
		}
	}
}
