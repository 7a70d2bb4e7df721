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
// Two source directives interact with the kernel:
//
//	//greenvet:allow <analyzer>[,<analyzer>...] <reason>
//
// on the flagged line (or the line immediately above it) suppresses the
// named analyzers' diagnostics there. The reason is mandatory by
// convention: an allow is a reviewed claim that the construct is safe
// (e.g. a map range whose order cannot reach a result). Every allow is a
// standing liability, so the kernel also does suppression accounting:
// RunWithUsage records which directives actually swallowed a diagnostic,
// and Allows enumerates every directive in a package, letting the greenvet
// driver report stale allows that no longer suppress anything.
//
//	//greenvet:shardboundary
//
// in a function's doc comment marks it as a reviewed partition-boundary
// builder, the only place the shardsafety analyzer permits Link.SetRemote
// and cross-shard conduit construction (see that package).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. Run inspects the Pass's package and reports
// findings through pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
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
// with //greenvet:allow suppressions applied, sorted by position.
func Run(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	return RunWithUsage(a, fset, files, pkg, info, nil)
}

// AllowKey identifies one analyzer name claimed by one allow directive:
// the directive's file and line plus the analyzer it names. It is the unit
// of suppression accounting — a directive naming two analyzers is two keys.
type AllowKey struct {
	File     string
	Line     int
	Analyzer string
}

// Allow is one parsed //greenvet:allow claim, positioned for reporting.
type Allow struct {
	AllowKey
	Pos token.Pos
}

// RunWithUsage is Run plus suppression accounting: every allow directive
// that swallows a diagnostic has its key recorded in used (when non-nil).
// The greenvet driver aggregates usage across the suite to report stale
// directives that no longer suppress anything.
func RunWithUsage(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, used map[AllowKey]bool) ([]Diagnostic, error) {
	pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
	if _, err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	allowed := allowDirectives(fset, files)
	var kept []Diagnostic
	for _, d := range pass.diags {
		if key, ok := allowed.covering(fset.Position(d.Pos), a.Name); ok {
			if used != nil {
				used[key] = true
			}
			continue
		}
		kept = append(kept, d)
	}
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].Pos < kept[j].Pos })
	return kept, nil
}

// Allows enumerates every //greenvet:allow claim in files, one entry per
// analyzer name mentioned, in file order.
func Allows(fset *token.FileSet, files []*ast.File) []Allow {
	var out []Allow
	forEachAllow(fset, files, func(a Allow) { out = append(out, a) })
	return out
}

// allowSet maps file → line → analyzer names suppressed on that line.
type allowSet map[string]map[int]map[string]bool

// covering returns the key of the allow directive (same line first, then
// the line immediately above) that names the analyzer at pos, if any.
func (s allowSet) covering(pos token.Position, analyzer string) (AllowKey, bool) {
	lines := s[pos.Filename]
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if lines[line][analyzer] {
			return AllowKey{File: pos.Filename, Line: line, Analyzer: analyzer}, true
		}
	}
	return AllowKey{}, false
}

const allowPrefix = "greenvet:allow"

// forEachAllow invokes fn for every analyzer name claimed by every
// //greenvet:allow directive, in file order.
func forEachAllow(fset *token.FileSet, files []*ast.File, fn func(Allow)) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, n := range strings.Split(fields[0], ",") {
					n = strings.TrimSpace(n)
					if n == "" {
						continue
					}
					fn(Allow{AllowKey: AllowKey{File: pos.Filename, Line: pos.Line, Analyzer: n}, Pos: c.Pos()})
				}
			}
		}
	}
}

// allowDirectives scans every comment for //greenvet:allow directives.
func allowDirectives(fset *token.FileSet, files []*ast.File) allowSet {
	set := allowSet{}
	forEachAllow(fset, files, func(a Allow) {
		lines := set[a.File]
		if lines == nil {
			lines = map[int]map[string]bool{}
			set[a.File] = lines
		}
		names := lines[a.Line]
		if names == nil {
			names = map[string]bool{}
			lines[a.Line] = names
		}
		names[a.Analyzer] = true
	})
	return set
}

// HasDirective reports whether doc contains the directive as a line of its
// own (the shape of //greenvet:shardboundary).
func HasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// Inspect walks every file in the pass in depth-first order.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}
