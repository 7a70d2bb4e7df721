// Command greenvet enforces this module's determinism contract: it runs
// the internal/analysis suite (nodeterminism, floatorder) over every
// package the suite guards and exits non-zero on any finding. Hot-path
// allocations are not its business: the allocation tests count them by
// running the code (go test -run Alloc ./internal/...).
//
// Usage:
//
//	go run ./cmd/greenvet ./...
//
// greenvet loads packages itself (go list -export and the gc importer) and
// takes no flags. There is no way to suppress a finding in place: rewrite
// the code into an idiom the analyzer recognizes (the engine clock,
// sim.RNG, sorted-key iteration), or teach the analyzer that idiom with a
// golden case in its testdata.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 operational error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"greenenvy/internal/analysis"
	"greenenvy/internal/analysis/load"
	"greenenvy/internal/analysis/suite"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: greenvet [packages]\n\nAnalyzers:\n")
		for _, a := range suite.Analyzers {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "\nHot-path allocations are counted by tests: go test -run Alloc ./internal/...\n")
	}
	flag.Parse()
	os.Exit(run(flag.Args()))
}

// run loads the requested packages (default ./...) and runs every analyzer
// over the ones the suite guards.
func run(patterns []string) int {
	pkgs, err := load.Packages("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "greenvet:", err)
		return 2
	}
	wd, _ := os.Getwd()
	found := 0
	for _, pkg := range pkgs {
		if !suite.Guards(pkg.ImportPath) {
			continue
		}
		for _, a := range suite.Analyzers {
			diags, err := analysis.Run(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
			if err != nil {
				fmt.Fprintln(os.Stderr, "greenvet:", err)
				return 2
			}
			found += len(diags)
			for _, d := range diags {
				pos := pkg.Fset.Position(d.Pos)
				file := pos.Filename
				if r, err := filepath.Rel(wd, file); wd != "" && err == nil && !strings.HasPrefix(r, "..") {
					file = r
				}
				fmt.Fprintf(os.Stderr, "%s:%d:%d: %s [%s]\n", file, pos.Line, pos.Column, d.Message, d.Analyzer)
			}
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "greenvet: %d finding(s)\n", found)
		return 1
	}
	return 0
}
