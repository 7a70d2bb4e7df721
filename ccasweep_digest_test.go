package greenenvy

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"greenenvy/internal/registry"
)

// The golden digest constant lives in internal/registry
// (registry.Fig5GoldenDigest) because it doubles as the persistent result
// cache's simulator version stamp.

// digestOpts is the reduced-scale sweep the digest covers: 50 MB per run,
// 2 repetitions of every (CCA, MTU) cell. Workers is left at the default;
// RunCCASweep guarantees results are identical for any worker count.
func digestOpts() Options { return Options{Reps: 2, Scale: 0.001, Seed: 1} }

// sweepDigest hashes every raw measurement of a sweep in cell order using
// the exact float64 bit patterns, so any change in event ordering — however
// small — flips the digest.
func sweepDigest(sw *SweepResult) string {
	h := sha256.New()
	put := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(vs []float64) {
		put(uint64(len(vs)))
		for _, v := range vs {
			put(math.Float64bits(v))
		}
	}
	put(sw.Bytes)
	put(uint64(len(sw.Cells)))
	for _, c := range sw.Cells {
		h.Write([]byte(c.CCA))
		put(uint64(c.MTU))
		putF(c.EnergyJ)
		putF(c.FCTSecs)
		putF(c.PowerW)
		putF(c.Retx)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestFig5SweepGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep digest is a full (reduced-scale) experiment")
	}
	sw, err := RunCCASweep(digestOpts())
	if err != nil {
		t.Fatal(err)
	}
	got := sweepDigest(sw)
	if got != registry.Fig5GoldenDigest {
		t.Fatalf("Fig-5 sweep digest changed:\n  got  %s\n  want %s\n"+
			"Same-seed results are no longer bit-identical. If this is an intentional "+
			"behaviour change, update registry.Fig5GoldenDigest in the same commit and record why "+
			"in CHANGES.md; otherwise a refactor broke determinism.", got, registry.Fig5GoldenDigest)
	}
}

// TestSweepDigestIsOrderSensitive guards the digest helper itself: swapping
// two measurements must change the hash.
func TestSweepDigestIsOrderSensitive(t *testing.T) {
	a := &SweepResult{Bytes: 1, Cells: []SweepCell{{CCA: "x", MTU: 1500, EnergyJ: []float64{1, 2}}}}
	b := &SweepResult{Bytes: 1, Cells: []SweepCell{{CCA: "x", MTU: 1500, EnergyJ: []float64{2, 1}}}}
	if sweepDigest(a) == sweepDigest(b) {
		t.Fatal("digest ignores measurement order")
	}
}
