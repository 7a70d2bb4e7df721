// Package nodeterminism rejects entropy sources and order-sensitive map
// iteration in result-affecting packages.
//
// The simulator's headline guarantee is that a run is a pure function of
// its seed: the fig5 golden digest, the persistent result cache, and the
// Workers-independence tests all assume it. One stray wall-clock read or
// globally-seeded random draw silently voids all three. This analyzer
// turns the convention into a build-time property:
//
//   - no wall-clock or timer reads (time.Now, time.Since, time.Sleep, ...);
//     simulated time comes from sim.Engine.Now
//   - no math/rand, math/rand/v2, or crypto/rand at all — not even with a
//     fixed seed — because their streams are not covered by the repo's
//     determinism tests; randomness comes from sim.RNG (seeded, stable,
//     splittable)
//   - no process-identity or environment entropy (os.Getpid, os.Hostname,
//     os.Getenv, ...)
//   - no map iteration that feeds an ordered sink (appending derived
//     values, writing to a builder/writer/fmt, concatenating strings):
//     iterate sorted keys instead. Collecting the bare key or value into a
//     slice is allowed — that is the first half of the sorted-iteration
//     idiom.
//
// There is no suppression directive. A false positive is fixed by
// rewriting the code into an idiom listed above (the engine clock, sim.RNG,
// collect-then-sort), or by teaching the analyzer the new idiom with a
// golden case in testdata/entropy.go.
package nodeterminism

import (
	"go/ast"
	"go/token"
	"go/types"

	"greenenvy/internal/analysis"
)

// Analyzer is the nodeterminism pass.
var Analyzer = &analysis.Analyzer{
	Name: "nodeterminism",
	Doc:  "forbid wall-clock, global randomness, process entropy, and order-sensitive map iteration in result-affecting packages",
	Run:  run,
}

// bannedFuncs maps package path → function name → the suggested fix.
// An empty name key bans every function in the package.
var bannedFuncs = map[string]map[string]string{
	"time": {
		"Now":       "use the sim.Engine clock (Engine.Now)",
		"Since":     "use sim.Time arithmetic on the engine clock",
		"Until":     "use sim.Time arithmetic on the engine clock",
		"Sleep":     "schedule an event with Engine.After",
		"After":     "schedule an event with Engine.After",
		"AfterFunc": "schedule an event with Engine.After or a sim.Timer",
		"Tick":      "use a self-rescheduling sim event",
		"NewTimer":  "use sim.Timer",
		"NewTicker": "use a self-rescheduling sim event",
	},
	"math/rand":    {"": "use sim.RNG: its stream is seeded, stable across Go releases, and covered by the golden-digest test"},
	"math/rand/v2": {"": "use sim.RNG: its stream is seeded, stable across Go releases, and covered by the golden-digest test"},
	"crypto/rand":  {"": "use sim.RNG; cryptographic entropy is never reproducible"},
	"os": {
		"Getpid":    "derive identity from experiment parameters, not the process",
		"Getppid":   "derive identity from experiment parameters, not the process",
		"Hostname":  "derive identity from experiment parameters, not the host",
		"Getenv":    "thread configuration through Options, not the environment",
		"LookupEnv": "thread configuration through Options, not the environment",
		"Environ":   "thread configuration through Options, not the environment",
	},
}

func run(pass *analysis.Pass) (any, error) {
	info := pass.TypesInfo
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// Any reference — call or value — to a banned function.
			fn, isFunc := info.Uses[n.Sel].(*types.Func)
			if !isFunc {
				return true
			}
			pkgPath, name, ok := analysis.PkgFuncName(fn)
			if !ok {
				return true
			}
			pkg, banned := bannedFuncs[pkgPath]
			if !banned {
				return true
			}
			if hint, all := pkg[""]; all {
				pass.Reportf(n.Pos(), "%s.%s is nondeterministic across runs: %s", pkgPath, name, hint)
				return true
			}
			if hint, one := pkg[name]; one {
				pass.Reportf(n.Pos(), "%s.%s is nondeterministic across runs: %s", pkgPath, name, hint)
			}
		case *ast.RangeStmt:
			if analysis.IsMapRange(info, n) {
				checkMapRange(pass, n)
			}
		}
		return true
	})
	return nil, nil
}

// checkMapRange flags order-sensitive sinks inside a range-over-map body.
// Nested map ranges are visited again by the outer Inspect, so this only
// looks at sinks attributable to rs itself (it does not recurse into
// nested map-range bodies, whose sinks are reported once, for the inner
// loop).
func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt) {
	info := pass.TypesInfo
	keyObj := rangeVarObj(info, rs.Key)
	valObj := rangeVarObj(info, rs.Value)

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if analysis.IsMapRange(info, n) {
				return false
			}
		case *ast.CallExpr:
			if ok, detail := isOrderedWriteCall(info, n); ok {
				pass.Reportf(n.Pos(), "%s inside map iteration: output depends on map order; iterate sorted keys instead", detail)
				return true
			}
			if ok, arg := appendSink(info, n, rs); ok {
				// A destination indexed by the loop key/value is a per-key
				// bucket: each key sees its own elements in a fixed order,
				// so iteration order cannot leak into the result.
				if analysis.IndexedByLoopVar(info, n.Args[0], keyObj, valObj) {
					return true
				}
				// Collecting the bare key or value is the sorted-iteration
				// idiom's first half and stays legal.
				if id, isIdent := ast.Unparen(arg).(*ast.Ident); isIdent {
					if obj := info.ObjectOf(id); obj != nil && (obj == keyObj || obj == valObj) {
						return true
					}
				}
				pass.Reportf(n.Pos(), "append of a derived value inside map iteration: element order depends on map order; collect keys, sort, then build")
			}
		case *ast.AssignStmt:
			checkStringAccumulation(pass, n, rs)
		}
		return true
	})
}

// rangeVarObj resolves a range clause variable to its object.
func rangeVarObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return info.ObjectOf(id)
}

// orderedWriterTypes are method receivers whose Write* methods preserve
// call order in their output.
var orderedWriterTypes = map[[2]string]bool{
	{"strings", "Builder"}: true,
	{"bytes", "Buffer"}:    true,
	{"bufio", "Writer"}:    true,
}

// isOrderedWriteCall reports whether call writes to an order-preserving
// text or byte sink (fmt printing, builder/buffer writes, io.WriteString).
func isOrderedWriteCall(info *types.Info, call *ast.CallExpr) (bool, string) {
	fn := analysis.CalleeFunc(info, call)
	pkgPath, name, ok := analysis.PkgFuncName(fn)
	if !ok {
		return false, ""
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed && named.Obj().Pkg() != nil {
			key := [2]string{named.Obj().Pkg().Path(), named.Obj().Name()}
			if orderedWriterTypes[key] && token.IsExported(name) &&
				(name == "WriteString" || name == "WriteByte" || name == "WriteRune" || name == "Write") {
				return true, "write to an ordered sink (" + key[0] + "." + key[1] + ")"
			}
		}
		return false, ""
	}
	switch pkgPath {
	case "fmt":
		switch name {
		case "Fprint", "Fprintf", "Fprintln", "Print", "Printf", "Println":
			return true, "fmt." + name + " write"
		}
	case "io":
		if name == "WriteString" {
			return true, "io.WriteString write"
		}
	}
	return false, ""
}

// appendSink reports whether call appends a single element to a slice
// declared outside the range statement, returning the appended element.
func appendSink(info *types.Info, call *ast.CallExpr, rs *ast.RangeStmt) (bool, ast.Expr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false, nil
	}
	if obj := info.ObjectOf(id); obj != nil && obj.Pkg() != nil {
		return false, nil // a shadowing user-defined append
	}
	if len(call.Args) != 2 || call.Ellipsis != token.NoPos {
		return false, nil
	}
	if !analysis.DeclaredOutside(info, call.Args[0], rs.Body, rs.Body) {
		return false, nil
	}
	return true, call.Args[1]
}

// checkStringAccumulation flags `s += ...` / `s = s + ...` on an outer
// string variable inside the loop.
func checkStringAccumulation(pass *analysis.Pass, as *ast.AssignStmt, rs *ast.RangeStmt) {
	info := pass.TypesInfo
	for i, lhs := range as.Lhs {
		tv, ok := info.Types[lhs]
		if !ok || tv.Type == nil || !analysis.IsString(tv.Type) {
			continue
		}
		if !analysis.DeclaredOutside(info, lhs, rs.Body, rs.Body) {
			continue
		}
		accum := false
		switch as.Tok {
		case token.ADD_ASSIGN:
			accum = true
		case token.ASSIGN:
			if i < len(as.Rhs) {
				if bin, isBin := ast.Unparen(as.Rhs[i]).(*ast.BinaryExpr); isBin && bin.Op == token.ADD {
					accum = sameRoot(info, bin.X, lhs) || sameRoot(info, bin.Y, lhs)
				}
			}
		}
		if accum {
			pass.Reportf(as.Pos(), "string concatenation inside map iteration: result depends on map order; iterate sorted keys instead")
		}
	}
}

// sameRoot reports whether a and b resolve to the same root object.
func sameRoot(info *types.Info, a, b ast.Expr) bool {
	ra, rb := analysis.RootIdent(a), analysis.RootIdent(b)
	if ra == nil || rb == nil {
		return false
	}
	oa, ob := info.ObjectOf(ra), info.ObjectOf(rb)
	return oa != nil && oa == ob
}
