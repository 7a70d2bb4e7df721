package suite

import (
	"os/exec"
	"strings"
	"testing"
)

// TestSuiteClassifiesEveryPackage is the scope audit, built like
// TestSweepKeyAuditsOptionsFields: every package in the module must be
// either guarded (in resultAffecting) or exempt here, with the reason it
// cannot change a result. A new or renamed package that is neither fails
// the test, so it cannot escape both analyzers unseen; a listed path that
// matches no package fails too, so neither list keeps a stale entry.
func TestSuiteClassifiesEveryPackage(t *testing.T) {
	// A pattern ending in "/..." covers its root and everything below it.
	exempt := map[string]string{
		"greenenvy/cmd/...":               "front ends: they parse flags and print what the guarded packages return; simbench times by the wall clock",
		"greenenvy/examples/...":          "runnable documentation: no table, figure or cache entry is built from it",
		"greenenvy/internal/perf":         "microbenchmark bodies: they measure speed by the wall clock, not results",
		"greenenvy/internal/analysis/...": "the checker itself",
	}

	out, err := exec.Command("go", "list", "greenenvy/...").Output()
	if err != nil {
		t.Fatalf("go list greenenvy/...: %v", err)
	}
	pkgs := strings.Fields(string(out))
	if len(pkgs) == 0 {
		t.Fatal("go list greenenvy/... printed no packages")
	}

	covers := func(pattern, pkg string) bool {
		if root, ok := strings.CutSuffix(pattern, "/..."); ok {
			return pkg == root || strings.HasPrefix(pkg, root+"/")
		}
		return pkg == pattern
	}
	matched := map[string]bool{}
	for _, pkg := range pkgs {
		var classes []string
		if Guards(pkg) {
			classes = append(classes, "resultAffecting")
			matched[pkg] = true
		}
		for pattern := range exempt {
			if covers(pattern, pkg) {
				classes = append(classes, "exempt "+pattern)
				matched[pattern] = true
			}
		}
		if len(classes) != 1 {
			t.Errorf("package %s is classified %d times %v: add it to exactly one of resultAffecting "+
				"(its code can change a result) and the exempt table (say why it cannot)", pkg, len(classes), classes)
		}
	}
	for _, p := range resultAffecting {
		if !matched[p] {
			t.Errorf("resultAffecting lists %s, which matches no package", p)
		}
	}
	for p := range exempt {
		if !matched[p] {
			t.Errorf("the exempt table lists %s, which matches no package", p)
		}
	}
}
