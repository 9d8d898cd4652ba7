package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism is the mechanical half of the bit-identical-results contract:
// the same graph, budget, and seed must produce the same top-k pairs at
// every workers setting. Three defect classes are flagged in
// library packages (package main — CLI glue, progress printing — is exempt):
//
//   - Map-order leaks: ranging over a map while appending to an outer slice,
//     sending on a channel, or printing. Appends are legal when the slice is
//     visibly sorted after the loop in the same function (the collect-then-
//     sort idiom obs.WriteMetrics uses).
//
//   - Nondeterministic sources: time.Now/time.Since and the global
//     math/rand functions (rand.Intn, rand.Perm, ...). Methods on a seeded
//     *rand.Rand are fine; so is rand.New(rand.NewSource(seed)).
//
//   - Pointer-identity branches: comparing two pointers with ==/!= (nil
//     checks excluded) makes control flow depend on allocation addresses.
//
// Observational code (trace timestamps, log timing) annotates with
// //convlint:nondet <reason>.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "result paths must not leak map order, read time/global rand, or branch on pointer identity",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	info := pass.TypesInfo
	for _, file := range pass.Files {
		inspectStack(file, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if t := info.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						checkMapRange(pass, file, n, stack)
					}
				}
			case *ast.CallExpr:
				checkNondetCall(pass, file, n)
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					checkPointerCompare(pass, file, n)
				}
			}
			return true
		})
	}
	return nil
}

// checkMapRange flags order-dependent effects inside a range-over-map body:
// appends to slices declared outside the loop (unless sorted afterwards),
// channel sends, and printing.
func checkMapRange(pass *Pass, file *ast.File, rng *ast.RangeStmt, stack []ast.Node) {
	info := pass.TypesInfo
	fn := enclosingFuncDecl(file, rng.Pos())
	_ = stack
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || calleeName(info, call) != "append" || len(call.Args) == 0 || i >= len(n.Lhs) {
					continue
				}
				dst, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := info.Uses[dst].(*types.Var)
				if !ok && info.Defs[dst] != nil {
					v, ok = info.Defs[dst].(*types.Var)
				}
				if !ok || v == nil {
					continue
				}
				// Appending to a variable declared inside the range body is
				// invisible outside one iteration.
				if rng.Body.Pos() <= v.Pos() && v.Pos() <= rng.Body.End() {
					continue
				}
				if sortedAfter(info, fn, v, rng.End()) {
					continue
				}
				if !suppressedAt(pass, file, n.Pos(), "nondet") {
					pass.Reportf(n.Pos(), "append to %s inside range over map leaks map order; sort afterwards or iterate sorted keys", v.Name())
				}
			}
		case *ast.SendStmt:
			if !suppressedAt(pass, file, n.Pos(), "nondet") {
				pass.Reportf(n.Pos(), "channel send inside range over map leaks map order")
			}
		case *ast.CallExpr:
			if name, pkg := calleeQualified(info, n); pkg == "fmt" && strings.HasPrefix(name, "Print") ||
				pkg == "fmt" && strings.HasPrefix(name, "Fprint") {
				if !suppressedAt(pass, file, n.Pos(), "nondet") {
					pass.Reportf(n.Pos(), "printing inside range over map leaks map order")
				}
			}
		}
		return true
	})
}

// sortedAfter reports whether v is passed to a recognized sort call lexically
// after pos inside fn — the collect-then-sort idiom.
func sortedAfter(info *types.Info, fn *ast.FuncDecl, v *types.Var, pos token.Pos) bool {
	if fn == nil || fn.Body == nil {
		return false
	}
	sorted := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		name, pkg := calleeQualified(info, call)
		isSort := (pkg == "sort" || pkg == "slices") && (strings.HasPrefix(name, "Sort") ||
			name == "Strings" || name == "Ints" || name == "Float64s" || name == "Stable" || name == "Slice")
		if !isSort {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.Uses[id] == v {
				sorted = true
			}
		}
		return true
	})
	return sorted
}

// globalRandFuncs are the math/rand (and rand/v2) package-level functions
// backed by the unseeded global source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int32": true, "Int32N": true, "Int64": true, "Int64N": true,
	"IntN": true, "N": true, "Uint32": true, "Uint64": true, "Uint64N": true, "Uint32N": true,
	"UintN": true, "Uint": true, "Float32": true, "Float64": true,
	"ExpFloat64": true, "NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
}

// checkNondetCall flags time.Now/time.Since and global math/rand calls.
func checkNondetCall(pass *Pass, file *ast.File, call *ast.CallExpr) {
	callee := calleeFunc(pass.TypesInfo, call)
	if callee == nil || callee.Pkg() == nil {
		return
	}
	if callee.Type().(*types.Signature).Recv() != nil {
		return // methods (e.g. on a seeded *rand.Rand) are fine
	}
	switch callee.Pkg().Path() {
	case "time":
		if callee.Name() == "Now" || callee.Name() == "Since" {
			if !suppressedAt(pass, file, call.Pos(), "nondet") {
				pass.Reportf(call.Pos(), "time.%s in library code breaks run-to-run determinism", callee.Name())
			}
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[callee.Name()] {
			if !suppressedAt(pass, file, call.Pos(), "nondet") {
				pass.Reportf(call.Pos(), "global rand.%s uses an unseeded source; thread a seeded *rand.Rand instead", callee.Name())
			}
		}
	}
}

// checkPointerCompare flags ==/!= between two pointer-typed operands where
// neither side is nil.
func checkPointerCompare(pass *Pass, file *ast.File, b *ast.BinaryExpr) {
	info := pass.TypesInfo
	isNil := func(e ast.Expr) bool {
		tv, ok := info.Types[e]
		return ok && tv.IsNil()
	}
	if isNil(b.X) || isNil(b.Y) {
		return
	}
	isPtr := func(e ast.Expr) bool {
		t := info.TypeOf(e)
		if t == nil {
			return false
		}
		_, ok := t.Underlying().(*types.Pointer)
		return ok
	}
	if !isPtr(b.X) || !isPtr(b.Y) {
		return
	}
	if suppressedAt(pass, file, b.Pos(), "nondet") {
		return
	}
	pass.Reportf(b.Pos(), "branching on pointer identity is allocation-order dependent; compare values or ids")
}

// calleeQualified returns (function name, package name) for pkg.Fn() calls,
// or ("", "") otherwise.
func calleeQualified(info *types.Info, call *ast.CallExpr) (name, pkg string) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", ""
	}
	return fn.Name(), fn.Pkg().Name()
}
