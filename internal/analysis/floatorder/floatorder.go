// Package floatorder flags floating-point accumulation whose result
// depends on map iteration order.
//
// Float addition and multiplication are not associative: summing the same
// set of values in two different orders can produce different last bits,
// which is exactly how a mean/std aggregation goes non-reproducible when
// it folds over a Go map (whose iteration order is randomized per run).
// The fix is always the same: iterate the keys in sorted order, or
// accumulate into a slice indexed deterministically and reduce that.
//
// Flagged inside a `for ... range m` over a map:
//
//   - compound float assignment to a variable declared outside the loop:
//     sum += v, prod *= v, s -= v, s /= v
//   - the spelled-out form: sum = sum + v (and -, *, /)
//   - appending a *derived* float expression to an outer slice (the
//     collected order feeds a later fold); appending the bare key or
//     value stays legal, matching nodeterminism's collect-then-sort
//     allowance
//
// There is no suppression directive. A false positive is fixed by
// rewriting the fold over sorted keys, or by teaching the analyzer the new
// idiom with a golden case in testdata/accum.go.
package floatorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"greenenvy/internal/analysis"
)

// Analyzer is the floatorder pass.
var Analyzer = &analysis.Analyzer{
	Name: "floatorder",
	Doc:  "flag floating-point accumulation ordered by map iteration",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	pass.Inspect(func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || !analysis.IsMapRange(pass.TypesInfo, rs) {
			return true
		}
		checkBody(pass, rs)
		return true
	})
	return nil, nil
}

// accumOps are the non-associative-under-reordering float operators.
var accumOps = map[token.Token]token.Token{
	token.ADD_ASSIGN: token.ADD,
	token.SUB_ASSIGN: token.SUB,
	token.MUL_ASSIGN: token.MUL,
	token.QUO_ASSIGN: token.QUO,
}

func checkBody(pass *analysis.Pass, rs *ast.RangeStmt) {
	info := pass.TypesInfo
	keyObj := objOf(info, rs.Key)
	valObj := objOf(info, rs.Value)

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if analysis.IsMapRange(info, n) {
				return false // the inner loop is checked on its own visit
			}
		case *ast.AssignStmt:
			checkAssign(pass, n, rs)
		case *ast.CallExpr:
			checkFloatAppend(pass, n, rs, keyObj, valObj)
		}
		return true
	})
}

func checkAssign(pass *analysis.Pass, as *ast.AssignStmt, rs *ast.RangeStmt) {
	info := pass.TypesInfo
	if _, compound := accumOps[as.Tok]; compound {
		for _, lhs := range as.Lhs {
			if isOuterFloat(info, lhs, rs) {
				pass.Reportf(as.Pos(), "float accumulation ordered by map iteration: %s folds in map order and float %s is not associative; iterate sorted keys", as.Tok, accumOps[as.Tok])
			}
		}
		return
	}
	if as.Tok != token.ASSIGN {
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) || !isOuterFloat(info, lhs, rs) {
			continue
		}
		bin, ok := ast.Unparen(as.Rhs[i]).(*ast.BinaryExpr)
		if !ok {
			continue
		}
		switch bin.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
			if sameRoot(info, bin.X, lhs) || sameRoot(info, bin.Y, lhs) {
				pass.Reportf(as.Pos(), "float accumulation ordered by map iteration: x = x %s ... folds in map order and float %s is not associative; iterate sorted keys", bin.Op, bin.Op)
			}
		}
	}
}

// checkFloatAppend flags appends of derived float expressions to slices
// declared outside the loop.
func checkFloatAppend(pass *analysis.Pass, call *ast.CallExpr, rs *ast.RangeStmt, keyObj, valObj types.Object) {
	info := pass.TypesInfo
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return
	}
	if obj := info.ObjectOf(id); obj != nil && obj.Pkg() != nil {
		return // shadowed append
	}
	if len(call.Args) != 2 || call.Ellipsis != token.NoPos {
		return
	}
	if !analysis.DeclaredOutside(info, call.Args[0], rs.Body, rs.Body) {
		return
	}
	if analysis.IndexedByLoopVar(info, call.Args[0], keyObj, valObj) {
		return // per-key bucket: each key's elements keep a fixed order
	}
	arg := ast.Unparen(call.Args[1])
	tv, ok := info.Types[arg]
	if !ok || tv.Type == nil || !analysis.IsFloat(tv.Type) {
		return
	}
	if id, isIdent := arg.(*ast.Ident); isIdent {
		if obj := info.ObjectOf(id); obj != nil && (obj == keyObj || obj == valObj) {
			return // bare key/value collection: collect-then-sort idiom
		}
	}
	pass.Reportf(call.Pos(), "derived float collected in map-iteration order feeds later aggregation; collect keys, sort, then compute")
}

func isOuterFloat(info *types.Info, lhs ast.Expr, rs *ast.RangeStmt) bool {
	tv, ok := info.Types[lhs]
	if !ok || tv.Type == nil || !analysis.IsFloat(tv.Type) {
		return false
	}
	return analysis.DeclaredOutside(info, lhs, rs.Body, rs.Body)
}

func objOf(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return info.ObjectOf(id)
}

func sameRoot(info *types.Info, a, b ast.Expr) bool {
	ra, rb := analysis.RootIdent(a), analysis.RootIdent(b)
	if ra == nil || rb == nil {
		return false
	}
	oa, ob := info.ObjectOf(ra), info.ObjectOf(rb)
	return oa != nil && oa == ob
}
