// Package hotpathalloc flags allocation-causing constructs in functions
// reachable from the simulator's pooled event-loop hot path.
//
// PR 2 made the steady-state event loop allocation-free (pooled events,
// rearmable timers, ring-buffered queues) and pinned it with AllocsPerRun
// benchmarks. Those pins only fire when the benchmarks run; this analyzer
// makes the same regression impossible to merge silently by rejecting the
// constructs that put allocations back:
//
//   - fmt.* / strconv formatting calls and errors.New
//   - closure literals (captured variables escape)
//   - new(T), make(...), &T{...}, and map/slice composite literals
//   - append (unsized growth)
//   - string concatenation and string<->[]byte/[]rune conversions
//   - interface boxing: passing or assigning a non-pointer-shaped concrete
//     value where an interface is expected
//
// The hot-path set is explicit, not guessed: a function whose doc comment
// contains a `//greenvet:hotpath` line is a root, and every same-package
// function referenced (called, or mentioned as a method value) from a hot
// function is hot too. Arguments of a direct panic(...) call are exempt —
// an allocation on a path that ends the process cannot regress
// steady-state throughput.
//
// Amortized allocations that are genuinely part of the design (pool
// refills, slices whose capacity reaches a steady state) are annotated at
// the call site with `//greenvet:allow hotpathalloc <reason>`, which turns
// each one into a reviewed, documented exception instead of silent lore.
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"greenenvy/internal/analysis"
)

// Analyzer is the hotpathalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc:  "flag allocation-causing constructs in functions reachable from //greenvet:hotpath roots",
	Run:  run,
}

// HotPathDirective marks a hot-path root function when it appears on its
// own line of the function's doc comment.
const HotPathDirective = "//greenvet:hotpath"

func run(pass *analysis.Pass) (any, error) {
	info := pass.TypesInfo

	// Collect this package's function declarations and the annotated roots.
	decls := map[*types.Func]*ast.FuncDecl{}
	var order []*types.Func // file order, for deterministic traversal
	var roots []*types.Func
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[fn] = fd
			order = append(order, fn)
			if analysis.HasDirective(fd.Doc, HotPathDirective) {
				roots = append(roots, fn)
			}
		}
	}

	// Reachability: any same-package function referenced from a hot
	// function's body is hot (covers calls and method values handed to
	// timers/callbacks alike). A method of an instantiated generic type
	// resolves to its generic declaration.
	hot := map[*types.Func]bool{}
	work := append([]*types.Func(nil), roots...)
	for _, fn := range roots {
		hot[fn] = true
	}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		ast.Inspect(decls[fn].Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			callee, ok := info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			if callee = callee.Origin(); hot[callee] {
				return true
			}
			if _, local := decls[callee]; local {
				hot[callee] = true
				work = append(work, callee)
			}
			return true
		})
	}

	for _, fn := range order {
		if hot[fn] {
			checkFunc(pass, fn, decls[fn])
		}
	}
	return nil, nil
}

// allocatingCalls maps package path → function names that always allocate.
// An empty name key covers the whole package.
var allocatingCalls = map[string]map[string]bool{
	"fmt":    {"": true},
	"errors": {"New": true},
	"strconv": {
		"Itoa": true, "FormatInt": true, "FormatUint": true,
		"FormatFloat": true, "Quote": true, "AppendInt": false,
	},
	"sort": {"Slice": true, "SliceStable": true, "Sort": true, "Strings": true, "Ints": true, "Float64s": true},
}

func checkFunc(pass *analysis.Pass, fn *types.Func, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	name := fn.Name()
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// panic(...) ends the process: its arguments may allocate.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if obj := info.ObjectOf(id); obj == nil || obj.Pkg() == nil {
					return false
				}
			}
			checkCall(pass, name, n)
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "hot path (%s): closure literal allocates its captured environment; hoist to a method or a stored func", name)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "hot path (%s): &T{...} heap-allocates; recycle from a pool or reuse a field", name)
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Map, *types.Slice:
					pass.Reportf(n.Pos(), "hot path (%s): map/slice literal allocates; preallocate outside the loop", name)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := info.Types[n]; ok && tv.Type != nil && analysis.IsString(tv.Type) && !isConstant(info, n) {
					pass.Reportf(n.Pos(), "hot path (%s): string concatenation allocates", name)
				}
			}
		case *ast.AssignStmt:
			checkAssignBoxing(pass, name, n)
		}
		return true
	}
	ast.Inspect(fd.Body, visit)
}

func isConstant(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

func checkCall(pass *analysis.Pass, name string, call *ast.CallExpr) {
	info := pass.TypesInfo

	// Builtins: new, make, append.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := info.ObjectOf(id); obj == nil || obj.Pkg() == nil {
			switch id.Name {
			case "new":
				pass.Reportf(call.Pos(), "hot path (%s): new(T) heap-allocates; recycle from a pool", name)
				return
			case "make":
				pass.Reportf(call.Pos(), "hot path (%s): make allocates; preallocate outside the hot path", name)
				return
			case "append":
				pass.Reportf(call.Pos(), "hot path (%s): append may grow its backing array; use a preallocated ring or pool, or justify with //greenvet:allow hotpathalloc", name)
				// An append's arguments can still box (append([]any, v)).
			}
		}
	}

	// Conversions: string <-> []byte / []rune allocate.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, typeOf(info, call.Args[0])
		if from != nil && stringSliceConv(to, from) {
			pass.Reportf(call.Pos(), "hot path (%s): string/byte-slice conversion copies and allocates", name)
		}
		return
	}

	// Known allocating calls.
	fn := analysis.CalleeFunc(info, call)
	if pkgPath, fname, ok := analysis.PkgFuncName(fn); ok {
		if names, banned := allocatingCalls[pkgPath]; banned && (names[""] || names[fname]) {
			pass.Reportf(call.Pos(), "hot path (%s): %s.%s allocates", name, pkgPath, fname)
			return
		}
	}

	// Interface boxing at the call boundary.
	if fn != nil {
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil {
			checkCallBoxing(pass, name, call, sig)
		}
	}
}

// checkCallBoxing flags non-pointer-shaped concrete arguments passed to
// interface-typed parameters.
func checkCallBoxing(pass *analysis.Pass, name string, call *ast.CallExpr, sig *types.Signature) {
	info := pass.TypesInfo
	params := sig.Params()
	n := params.Len()
	if n == 0 {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= n-1 {
			if call.Ellipsis != token.NoPos {
				continue // forwarding a slice: no per-element boxing
			}
			pt = params.At(n - 1).Type().(*types.Slice).Elem()
		} else if i < n {
			pt = params.At(i).Type()
		} else {
			break
		}
		if boxes(pt, typeOf(info, arg)) && !isConstant(info, arg) {
			pass.Reportf(arg.Pos(), "hot path (%s): argument boxes a concrete value into %s, which heap-allocates", name, pt)
		}
	}
}

// checkAssignBoxing flags assignments that box a concrete value into an
// interface-typed lvalue.
func checkAssignBoxing(pass *analysis.Pass, name string, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	info := pass.TypesInfo
	for i := range as.Lhs {
		lt, rt := typeOf(info, as.Lhs[i]), typeOf(info, as.Rhs[i])
		if as.Tok == token.DEFINE {
			continue // inferred type equals RHS type: no boxing
		}
		if boxes(lt, rt) && !isConstant(info, as.Rhs[i]) {
			pass.Reportf(as.Rhs[i].Pos(), "hot path (%s): assignment boxes a concrete value into %s, which heap-allocates", name, lt)
		}
	}
}

// boxes reports whether storing a value of type from into a location of
// type to converts a non-pointer-shaped concrete value to an interface.
func boxes(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	if _, iface := to.Underlying().(*types.Interface); !iface {
		return false
	}
	switch from.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped: stored directly in the interface word
	case *types.Basic:
		if from.Underlying().(*types.Basic).Kind() == types.UntypedNil ||
			from.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return false
		}
		return true
	default:
		return true // structs, arrays, slices, strings, numerics
	}
}

// stringSliceConv reports whether to(from) is a string<->[]byte/[]rune
// conversion.
func stringSliceConv(to, from types.Type) bool {
	return (analysis.IsString(to) && isByteOrRuneSlice(from)) ||
		(analysis.IsString(from) && isByteOrRuneSlice(to))
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	tv, ok := info.Types[e]
	if !ok {
		return nil
	}
	return tv.Type
}
