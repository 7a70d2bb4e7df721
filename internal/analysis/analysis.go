// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics.
//
// It exists because this module's determinism guarantees — byte-identical
// same-seed sweeps, replayable cache entries — are contracts worth
// enforcing at build time, and the module deliberately has no third-party
// dependencies. The kernel mirrors the upstream API shape closely enough
// that the analyzers under internal/analysis/... would port to x/tools
// mechanically. The allocation-free packet path is not checked here: tests
// that run the code count its allocations exactly.
//
// There are no source directives: a finding is never suppressed in place.
// A false positive is fixed by rewriting the code into an idiom the
// analyzer recognizes, or by teaching the analyzer that idiom with a golden
// case in its testdata.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static check. Run inspects the Pass's package and reports
// findings through pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run performs the analysis. The returned value is unused by the
	// driver; it exists to keep the upstream signature.
	Run func(*Pass) (any, error)
}

// Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// Analyzer is the reporting analyzer's name (filled by the kernel).
	Analyzer string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Run executes one analyzer over one package and returns its diagnostics
// sorted by position.
func Run(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
	if _, err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	sort.SliceStable(pass.diags, func(i, j int) bool { return pass.diags[i].Pos < pass.diags[j].Pos })
	return pass.diags, nil
}

// Inspect walks every file in the pass in depth-first order.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}
