// Package registryhygiene statically validates every experiment
// registration in the root package.
//
// The registry (registry.go) panics at init time on empty names and
// collisions, but only when the code actually runs — and it cannot know
// anything about cache keying. This analyzer moves the whole contract to
// build time, inspecting each Register(Experiment{...}) call:
//
//   - Name and Description must be non-empty string literals (constants):
//     the registry is a static catalogue, and a computed name would also be
//     invisible to the cache-id audit below
//   - Run must be present and not the nil literal
//   - names and aliases must be unique across every Register call in the
//     package
//   - the experiment must have an entry in ExperimentCacheIDs — the fact
//     table shared with the sweepKey/cache-id audit test — and the entry's
//     non-empty cache-id prefix must appear as a string literal in the
//     package (the registry.TestbedCell / registry.Cell Key or cache.NewKey
//     id site), so an experiment cannot silently compute results under an
//     undeclared cache namespace and corrupt key hygiene
//
// Scenario-compiled experiments register through two funnels instead of a
// literal Experiment{...}:
//
//   - RegisterScenario(name) compiles a built-in spec at init time. Each
//     call must pass a non-empty string literal, the name must be unique
//     against every other registration, and its fact-table entry must be
//     exactly ScenarioCacheIDPrefix — the compiler namespaces every cell id
//     under "scenario/<spec-digest>/", so the static table records the
//     namespace (the digest part is the spec's own content address).
//   - RegisterScenarioFile(path) loads user spec files at runtime. It is
//     documented-exempt from the static audit: runtime-loaded specs cannot
//     appear in a compile-time fact table, and they are digest-namespaced
//     under ScenarioCacheIDPrefix by construction, so they cannot collide
//     with any audited prefix.
//
// Register calls inside those two funnel bodies are the one place a
// non-literal Experiment argument is allowed.
//
// Suppress a reviewed exception with
// `//greenvet:allow registryhygiene <reason>`.
package registryhygiene

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"greenenvy/internal/analysis"
)

// Analyzer validates Register calls against the production fact table.
var Analyzer = New(ExperimentCacheIDs)

// New builds the analyzer against a specific fact table (tests supply
// their own).
func New(facts map[string]string) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "registryhygiene",
		Doc:  "validate experiment registrations: literal metadata, unique names, declared cache-id prefixes",
		Run:  func(pass *analysis.Pass) (any, error) { return run(pass, facts) },
	}
}

func run(pass *analysis.Pass, facts map[string]string) (any, error) {
	info := pass.TypesInfo

	// All string literals in the package, for the cache-id prefix check.
	literals := map[string]bool{}
	pass.Inspect(func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				literals[s] = true
			}
		}
		return true
	})

	// The scenario registration funnels: Register calls inside their bodies
	// pass a compiled (non-literal) Experiment and are audited through the
	// RegisterScenario rule instead.
	type span struct{ lo, hi token.Pos }
	var funnels []span
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if ok && (fd.Name.Name == "RegisterScenario" || fd.Name.Name == "RegisterScenarioFile") && fd.Recv == nil {
				funnels = append(funnels, span{fd.Pos(), fd.End()})
			}
		}
	}
	inFunnel := func(p token.Pos) bool {
		for _, s := range funnels {
			if s.lo <= p && p < s.hi {
				return true
			}
		}
		return false
	}

	seen := map[string]token.Pos{} // name/alias → first registration site
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pass.Pkg.Path() {
			return true
		}
		if fn.Name() == "RegisterScenario" && len(call.Args) == 1 {
			checkScenarioRegistration(pass, call, facts, literals, seen)
			return true
		}
		if fn.Name() != "Register" || len(call.Args) != 1 {
			return true
		}
		lit := compositeArg(call.Args[0])
		if lit == nil {
			if !inFunnel(call.Pos()) {
				pass.Reportf(call.Pos(), "Register argument must be a literal Experiment{...} so the registry stays statically auditable")
			}
			return true
		}
		checkRegistration(pass, call, lit, facts, literals, seen)
		return true
	})
	return nil, nil
}

// checkScenarioRegistration audits one RegisterScenario(name) call: literal
// unique name, fact-table entry pinned to the scenario cache namespace.
func checkScenarioRegistration(pass *analysis.Pass, call *ast.CallExpr, facts map[string]string, literals map[string]bool, seen map[string]token.Pos) {
	name, ok := constString(pass.TypesInfo, call.Args[0])
	if !ok || name == "" {
		pass.Reportf(call.Args[0].Pos(), "RegisterScenario name must be a non-empty string literal so the registration stays statically auditable")
		return
	}
	if prev, dup := seen[name]; dup {
		pass.Reportf(call.Pos(), "experiment name/alias %q already registered at %s; Register would panic at init", name, pass.Fset.Position(prev))
	} else {
		seen[name] = call.Pos()
	}
	prefix, known := facts[name]
	if !known {
		pass.Reportf(call.Pos(), "scenario experiment %q has no cache-id entry in the fact table (internal/analysis/registryhygiene/facts.go): declare it as %q", name, ScenarioCacheIDPrefix)
		return
	}
	if prefix != ScenarioCacheIDPrefix {
		pass.Reportf(call.Pos(), "scenario experiment %q must declare the %q cache namespace in the fact table, not %q: the compiler keys every cell under the spec digest inside that namespace", name, ScenarioCacheIDPrefix, prefix)
		return
	}
	if !prefixAppears(literals, prefix) {
		pass.Reportf(call.Pos(), "scenario experiment %q declares cache-id prefix %q but no string literal in the package starts with it: the CachePrefix cross-check is missing or diverged from the fact table", name, prefix)
	}
}

// compositeArg unwraps &Experiment{...} / Experiment{...} to the literal.
func compositeArg(e ast.Expr) *ast.CompositeLit {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	lit, _ := e.(*ast.CompositeLit)
	return lit
}

func checkRegistration(pass *analysis.Pass, call *ast.CallExpr, lit *ast.CompositeLit, facts map[string]string, literals map[string]bool, seen map[string]token.Pos) {
	info := pass.TypesInfo
	fields := map[string]ast.Expr{}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			pass.Reportf(el.Pos(), "Experiment literal must use field names (Name: ..., Run: ...)")
			return
		}
		if key, ok := kv.Key.(*ast.Ident); ok {
			fields[key.Name] = kv.Value
		}
	}

	name, nameOK := constString(info, fields["Name"])
	switch {
	case fields["Name"] == nil:
		pass.Reportf(lit.Pos(), "experiment registration is missing Name")
	case !nameOK:
		pass.Reportf(fields["Name"].Pos(), "experiment Name must be a string literal, not a computed value")
	case name == "":
		pass.Reportf(fields["Name"].Pos(), "experiment Name must be non-empty")
	}

	desc, descOK := constString(info, fields["Description"])
	switch {
	case fields["Description"] == nil:
		pass.Reportf(lit.Pos(), "experiment %s is missing a Description (greenbench -fig list renders it)", nameLabel(name))
	case !descOK:
		pass.Reportf(fields["Description"].Pos(), "experiment %s Description must be a string literal", nameLabel(name))
	case desc == "":
		pass.Reportf(fields["Description"].Pos(), "experiment %s Description must be non-empty", nameLabel(name))
	}

	switch runField := fields["Run"]; {
	case runField == nil:
		pass.Reportf(lit.Pos(), "experiment %s is missing its Run function", nameLabel(name))
	case isNilLiteral(info, runField):
		pass.Reportf(runField.Pos(), "experiment %s Run must not be nil", nameLabel(name))
	}

	// Uniqueness of the canonical name and every alias, package-wide.
	keys := []string{}
	if nameOK && name != "" {
		keys = append(keys, name)
	}
	if aliases := fields["Aliases"]; aliases != nil {
		if alit := compositeArg(aliases); alit != nil {
			for _, el := range alit.Elts {
				a, ok := constString(info, el)
				if !ok || a == "" {
					pass.Reportf(el.Pos(), "experiment %s aliases must be non-empty string literals", nameLabel(name))
					continue
				}
				keys = append(keys, a)
			}
		} else {
			pass.Reportf(aliases.Pos(), "experiment %s Aliases must be a literal []string{...}", nameLabel(name))
		}
	}
	for _, k := range keys {
		if prev, dup := seen[k]; dup {
			pass.Reportf(call.Pos(), "experiment name/alias %q already registered at %s; Register would panic at init", k, pass.Fset.Position(prev))
			continue
		}
		seen[k] = call.Pos()
	}

	// Cache-id fact table: every registered experiment declares its cache
	// namespace, and the declared prefix exists in the source.
	if !nameOK || name == "" {
		return
	}
	prefix, known := facts[name]
	if !known {
		pass.Reportf(call.Pos(), "experiment %q has no cache-id entry in the fact table (internal/analysis/registryhygiene/facts.go): declare its persistent-cache id prefix (or \"\" for closed-form experiments) so the sweepKey audit covers it", name)
		return
	}
	if prefix == "" {
		return
	}
	if !prefixAppears(literals, prefix) {
		pass.Reportf(call.Pos(), "experiment %q declares cache-id prefix %q but no string literal in the package starts with it: the registry.TestbedCell/Cell Key or cache.NewKey id site is missing or diverged from the fact table", name, prefix)
	}
}

// prefixAppears reports whether any string literal equals the prefix or
// extends it.
func prefixAppears(literals map[string]bool, prefix string) bool {
	if literals[prefix] {
		return true
	}
	for l := range literals {
		if strings.HasPrefix(l, prefix) {
			return true
		}
	}
	return false
}

func nameLabel(name string) string {
	if name == "" {
		return "(unnamed)"
	}
	return fmt.Sprintf("%q", name)
}

// constString evaluates e as a constant string.
func constString(info *types.Info, e ast.Expr) (string, bool) {
	if e == nil {
		return "", false
	}
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// isNilLiteral reports whether e is the predeclared nil.
func isNilLiteral(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// SortedExperimentNames returns the fact table's keys in sorted order
// (handy for deterministic test failure output).
func SortedExperimentNames(facts map[string]string) []string {
	names := make([]string, 0, len(facts))
	for n := range facts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
