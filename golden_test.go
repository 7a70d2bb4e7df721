package greenenvy

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// Golden table digests for the experiments whose measurements have no
// bit-level digest of their own. Each constant is the sha256 of the
// experiment's rendered table at a tiny, fixed configuration; a change in
// simulator behavior, run harness or table format flips it.

// fig1GoldenTable pins RunFig1 at Reps 2, Scale 0.001, Seed 1.
const fig1GoldenTable = "0d9bde9d0d517018d49b23bdb159c739747c15955e0939fcf6d2c9fd5aae86ef"

// fatTreeIncastGoldenTable pins RunFatTreeIncast at Reps 1, Scale 0.001,
// Seed 1.
const fatTreeIncastGoldenTable = "bf55652a5fadf1a0a556687cefb493677307800cfe1c464a2b72dc30687dede4"

// checkTableDigest fails t when table's sha256 differs from want.
func checkTableDigest(t *testing.T, name, table, want string) {
	t.Helper()
	sum := sha256.Sum256([]byte(table))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("%s table digest changed:\n  got  %s\n  want %s\n%s", name, got, want, table)
	}
}

func TestFig1TableGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	for _, workers := range []int{1, 4} {
		res, err := RunFig1(Options{Reps: 2, Scale: 0.001, Seed: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		checkTableDigest(t, "fig1", res.Table(), fig1GoldenTable)
	}
}

func TestFatTreeIncastTableGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	res, err := RunFatTreeIncast(Options{Reps: 1, Scale: 0.001, Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkTableDigest(t, "fattree-incast", res.Table(), fatTreeIncastGoldenTable)
}
