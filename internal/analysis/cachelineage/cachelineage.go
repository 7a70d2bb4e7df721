// Package cachelineage statically audits the lineage between experiment
// option/spec structs and the cache identities their results are stored
// under. The contract (ccasweep.go's sweepKey, scenario's Digest) is that
// a canonicalization function must contain every result-affecting field
// and nothing else: a physics field missing from the key serves stale
// cache entries that look like real experimental findings, and an
// execution knob present in the key splits the cache and duplicates work.
// The dynamic audits (TestSweepKeyAuditsOptionsFields, the scenario digest
// tests) enforce this at test time; this analyzer moves the same fact
// table to build time.
//
// Each Audit classifies every field of one struct:
//
//   - KeyPhysics: result-affecting; must be selected in the Canon function.
//   - Exempt: execution/persistence knob (Workers, CacheDir); must not
//     appear in Canon and must not flow into a physics carrier.
//   - Presentation: naming/metadata (Name, Section); same prohibitions as
//     Exempt, reported with presentation-specific wording.
//
// Three checks, each running in the packages where its subject resolves:
//
//  1. Completeness (declaring package): the fact table and the struct's
//     fields stay in bijection, so adding an un-keyed physics field — the
//     seeded mutation of the acceptance criteria — fails the build until
//     it is classified.
//  2. Canon bijection: the canonicalization function selects exactly the
//     KeyPhysics fields.
//  3. Taint-lite carrier flow: no Exempt or Presentation field selector
//     appears inside a composite literal (or field assignment) of a
//     physics-carrier type like testbed.Options or netsim.FatTreeConfig.
//
// Matching is by name (struct, function, and carrier names; carriers as
// "pkg.Type" or a bare in-package "Type"), so the golden testdata models
// the contract with stand-in types; the suite scopes the analyzer to the
// packages where the names mean the real thing.
//
// Suppress a reviewed exception with
// `//greenvet:allow cachelineage <reason>`.
package cachelineage

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"greenenvy/internal/analysis"
)

// Class is one field's cache-lineage classification.
type Class int

const (
	// KeyPhysics fields affect simulated results and must be in Canon.
	KeyPhysics Class = iota
	// Exempt fields are execution/persistence knobs outside the lineage.
	Exempt
	// Presentation fields are naming/metadata outside the lineage.
	Presentation
)

func (c Class) String() string {
	switch c {
	case KeyPhysics:
		return "KeyPhysics"
	case Exempt:
		return "Exempt"
	default:
		return "Presentation"
	}
}

// Audit is the fact table for one struct.
type Audit struct {
	// Struct is the audited struct type's name, resolved in each scoped
	// package (an alias like the root's Options resolves to the same
	// named type).
	Struct string
	// Canon is the canonicalization function: a function or method named
	// Canon with the struct as receiver or parameter.
	Canon string
	// Fields classifies every field of Struct.
	Fields map[string]Class
	// Carriers are the physics-carrier types ("pkg.Type" or in-package
	// "Type") that Exempt/Presentation fields must not flow into.
	Carriers []string
}

// Analyzer audits the production fact table (facts.go).
var Analyzer = New(Audits)

// New builds the analyzer against specific audits (tests supply their own).
func New(audits []Audit) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "cachelineage",
		Doc:  "audit option/spec field lineage: physics fields in the cache key, presentation fields out",
		Run:  func(pass *analysis.Pass) (any, error) { return run(pass, audits) },
	}
}

func run(pass *analysis.Pass, audits []Audit) (any, error) {
	for _, a := range audits {
		st := resolveStruct(pass.Pkg, a.Struct)
		if st == nil {
			continue
		}
		checkCompleteness(pass, a, st)
		checkCanon(pass, a, st)
		checkCarrierFlow(pass, a, st)
	}
	return nil, nil
}

// resolveStruct looks the audited struct up in the package scope and
// returns its named type (through any alias), or nil when the package has
// no such struct.
func resolveStruct(pkg *types.Package, name string) *types.Named {
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	named, ok := types.Unalias(obj.Type()).(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// checkCompleteness keeps the fact table and the struct's fields in
// bijection; it runs only in the struct's declaring package so the
// diagnostic lands on the declaration.
func checkCompleteness(pass *analysis.Pass, a Audit, named *types.Named) {
	if named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != pass.Pkg.Path() {
		return
	}
	spec := findTypeSpec(pass, a.Struct)
	if spec == nil {
		return
	}
	st := named.Underlying().(*types.Struct)
	have := map[string]bool{}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		have[f.Name()] = true
		if _, classified := a.Fields[f.Name()]; !classified {
			pass.Reportf(spec.Name.Pos(), "%s.%s has no cache-lineage class in the fact table: classify it KeyPhysics (and add it to %s), Exempt, or Presentation before it can silently serve stale cache entries", a.Struct, f.Name(), a.Canon)
		}
	}
	for _, name := range sortedFields(a.Fields) {
		if !have[name] {
			pass.Reportf(spec.Name.Pos(), "cache-lineage fact table classifies %s.%s but the struct has no such field: prune the stale entry", a.Struct, name)
		}
	}
}

// checkCanon requires the canonicalization function to select exactly the
// KeyPhysics fields.
func checkCanon(pass *analysis.Pass, a Audit, named *types.Named) {
	fd := findFuncFor(pass, a.Canon, named)
	if fd == nil {
		return
	}
	selected := selectedFields(pass, fd, named)
	var missing []string
	for _, name := range sortedFields(a.Fields) {
		if a.Fields[name] == KeyPhysics && selected[name] == token.NoPos {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		pass.Reportf(fd.Name.Pos(), "%s misses result-affecting field(s) %s of %s: a physics field outside the canonical key serves stale cache entries", a.Canon, strings.Join(missing, ", "), a.Struct)
	}
	for _, name := range sortedFields(a.Fields) {
		class := a.Fields[name]
		if class == KeyPhysics || selected[name] == token.NoPos {
			continue
		}
		pass.Reportf(selected[name], "%s field %s is classified %s and must not enter %s: a non-physics field in the key splits the cache and duplicates work", a.Struct, name, class, a.Canon)
	}
}

// checkCarrierFlow flags Exempt/Presentation field selectors inside
// composite literals or field assignments of physics-carrier types.
func checkCarrierFlow(pass *analysis.Pass, a Audit, named *types.Named) {
	info := pass.TypesInfo
	reported := map[token.Pos]bool{}
	flagIn := func(root ast.Expr, carrier string) {
		ast.Inspect(root, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name, ok := fieldOf(info, sel, named)
			if !ok || reported[sel.Pos()] {
				return true
			}
			switch class := a.Fields[name]; class {
			case Exempt, Presentation:
				reported[sel.Pos()] = true
				pass.Reportf(sel.Pos(), "%s field %s is classified %s but flows into physics carrier %s: either reclassify it KeyPhysics (and key it) or keep it out of simulation inputs", a.Struct, name, class, carrier)
			}
			return true
		})
	}
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if carrier, ok := carrierName(info, info.TypeOf(n), a.Carriers); ok {
				for _, el := range n.Elts {
					flagIn(el, carrier)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if carrier, ok := carrierName(info, info.TypeOf(sel.X), a.Carriers); ok {
					flagIn(n.Rhs[i], carrier)
				}
			}
		}
		return true
	})
}

// carrierName matches t against the carrier list ("pkg.Type" by package
// and type name, bare "Type" by type name alone).
func carrierName(info *types.Info, t types.Type, carriers []string) (string, bool) {
	if t == nil {
		return "", false
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	tname := named.Obj().Name()
	pname := ""
	if named.Obj().Pkg() != nil {
		pname = named.Obj().Pkg().Name()
	}
	for _, c := range carriers {
		if pkg, name, qualified := strings.Cut(c, "."); qualified {
			if name == tname && pkg == pname {
				return c, true
			}
		} else if c == tname {
			return c, true
		}
	}
	return "", false
}

// findTypeSpec locates the struct's type declaration in the package AST.
func findTypeSpec(pass *analysis.Pass, name string) *ast.TypeSpec {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, s := range gd.Specs {
				if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.Name == name {
					return ts
				}
			}
		}
	}
	return nil
}

// findFuncFor locates the function or method declaration with the given
// name whose receiver or some parameter is the audited struct type.
func findFuncFor(pass *analysis.Pass, name string, named *types.Named) *ast.FuncDecl {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != name || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := fn.Type().(*types.Signature)
			if sig.Recv() != nil && sameStruct(sig.Recv().Type(), named) {
				return fd
			}
			for i := 0; i < sig.Params().Len(); i++ {
				if sameStruct(sig.Params().At(i).Type(), named) {
					return fd
				}
			}
		}
	}
	return nil
}

// selectedFields collects every field of the audited struct selected in
// fd's body, mapped to the first selection position.
func selectedFields(pass *analysis.Pass, fd *ast.FuncDecl, named *types.Named) map[string]token.Pos {
	info := pass.TypesInfo
	out := map[string]token.Pos{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if name, ok := fieldOf(info, sel, named); ok && out[name] == token.NoPos {
			out[name] = sel.Pos()
		}
		return true
	})
	return out
}

// fieldOf reports the field name a selector reads off the audited struct,
// or ok=false for methods and selections on other types.
func fieldOf(info *types.Info, sel *ast.SelectorExpr, named *types.Named) (string, bool) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	if !sameStruct(s.Recv(), named) {
		return "", false
	}
	return s.Obj().Name(), true
}

// sameStruct reports whether t (through pointers and aliases) is the
// audited named type.
func sameStruct(t types.Type, named *types.Named) bool {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj() == named.Obj()
}

// sortedFields returns the fact table's field names in sorted order for
// deterministic diagnostics.
func sortedFields(fields map[string]Class) []string {
	names := make([]string, 0, len(fields))
	for n := range fields {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
