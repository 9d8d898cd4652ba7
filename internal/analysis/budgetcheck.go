package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ssspPkgPath is the package whose entry points spend the paper's budget
// unit (one SSSP computation).
const ssspPkgPath = "repro/internal/sssp"

// distPkgPath is the distance-engine abstraction; its query entry points
// cost the same one unit per source as the sssp kernels they dispatch to.
const distPkgPath = "repro/internal/dist"

// dynssspPkgPath holds the incremental repair kernels; batch-applying a
// delta re-derives a distance row, which the cost model prices the same one
// unit as computing the row fresh (charges count rows produced, not
// traversal work).
const dynssspPkgPath = "repro/internal/dynsssp"

// budgetPkgPath is the package whose Meter accounts for that spending.
const budgetPkgPath = "repro/internal/budget"

// corePkgPath owns the Session query surface. A Session.TopK call spends up
// to 2m SSSPs, so callers outside core must show where its meter comes from
// — the serve layer's discipline that every served query routes through a
// tenant meter.
const corePkgPath = "repro/internal/core"

// budgetExemptPkgs are allowed to call SSSP entry points freely: sssp's own
// wrappers compose each other, dist is the abstraction layer routing to
// them, and the oracle package is the budget's ground-truth referee.
var budgetExemptPkgs = map[string]bool{
	ssspPkgPath:             true,
	distPkgPath:             true,
	"repro/internal/oracle": true,
}

// budgetEntryPoint reports whether a function named name exported by the
// sssp package costs budget. The sets mirror the paper's accounting: every
// BFS/Dijkstra variant is one SSSP per source, and the multi-source drivers
// are one per source in the batch.
func budgetEntryPoint(name string) bool {
	for _, prefix := range []string{
		"BFS", // BFS, BFSWith
		"Dijkstra",
		"AllSources",    // AllSourcesFunc
		"PairedSources", // PairedSourcesFunc
		"RowsInto",
	} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	switch name {
	case "Distances", "WeightedDistances",
		// The Δ-threshold bounded second traversal: cut short for machine
		// work, but it still produces the charged row.
		"PrunedSecondBFS",
		// The MaxMin chain step: a pick's pruned traversal, run under the
		// pick's charge in place of its full row.
		"LowerNearest":
		return true
	}
	return false
}

// distEntryPoint reports whether a dist-package function or method named
// name costs budget: one unit per Source.DistancesInto call, one per t2
// row for PairedEngine.DeriveInto (bounded or not: the Δ-threshold cuts
// traversal, not charges), one per source for the batched sweeps,
// RowsInto and DistanceMatrix.
func distEntryPoint(name string) bool {
	switch name {
	case "DistancesInto", "DistanceMatrix", "RowsInto", "Sweep", "PairedSweep",
		"DeriveInto":
		return true
	}
	return false
}

// sessionEntryPoint reports whether fn is a core.Session query method.
// Matching on the receiver keeps the package-level core.TopK wrappers out:
// those are the one-shot self-metering surface, while a held Session is the
// serving idiom where the caller decides which tenant pays.
func sessionEntryPoint(fn *types.Func) bool {
	if fn.Name() != "TopK" && fn.Name() != "TopKSources" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && namedTypeIs(recv.Type(), corePkgPath, "Session")
}

// dynssspEntryPoint reports whether a dynsssp function or method named name
// re-derives distance rows and therefore costs budget under the
// rows-produced accounting: the batch repairs (one row each per call) and
// the per-edge insertion they generalize.
func dynssspEntryPoint(name string) bool {
	switch name {
	case "ApplyAll", "ApplyBatch", "ApplyStream", "InsertEdge":
		return true
	}
	return false
}

// BudgetCheck flags calls to budget-relevant sssp entry points from
// functions that neither charge a *budget.Meter on the way to the call nor
// carry a //convlint:unbudgeted directive. It is the mechanical form of the
// paper's Table 1 discipline: every SSSP a selector performs must be
// visible to the Meter.
var BudgetCheck = &Analyzer{
	Name: "budgetcheck",
	Doc: "flag SSSP entry-point calls that are neither metered nor " +
		"declared //convlint:unbudgeted",
	Run: runBudgetCheck,
}

func runBudgetCheck(pass *Pass) error {
	if budgetExemptPkgs[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			var pkgName string
			session := false
			switch fn.Pkg().Path() {
			case ssspPkgPath:
				if !budgetEntryPoint(fn.Name()) {
					return true
				}
				pkgName = "sssp"
			case distPkgPath:
				if !distEntryPoint(fn.Name()) {
					return true
				}
				pkgName = "dist"
			case dynssspPkgPath:
				if !dynssspEntryPoint(fn.Name()) {
					return true
				}
				pkgName = "dynsssp"
			case corePkgPath:
				// core itself implements the self-metering default (a fresh
				// 2m meter when Options carries none); the session rule is
				// for callers holding a Session.
				if pass.Pkg.Path() == corePkgPath || !sessionEntryPoint(fn) {
					return true
				}
				pkgName = "core.Session"
				session = true
			default:
				return true
			}
			decl := enclosingFuncDecl(file, call.Pos())
			if decl != nil {
				if _, ok := funcDirective(decl, "unbudgeted"); ok {
					return true
				}
				if chargesBefore(pass.TypesInfo, decl, call.Pos()) {
					return true
				}
				if session && acquiresMeterBefore(pass.TypesInfo, decl, call.Pos()) {
					return true
				}
			}
			if session {
				pass.Reportf(call.Pos(),
					"call to %s.%s without meter evidence on the path; "+
						"acquire the query's meter (budget.NewMeter or a "+
						"tenant's Admit) before the call or annotate the "+
						"enclosing function with //convlint:unbudgeted <reason>",
					pkgName, fn.Name())
				return true
			}
			pass.Reportf(call.Pos(),
				"call to %s.%s without a budget.Meter charge on the path; "+
					"charge the meter or annotate the enclosing function with "+
					"//convlint:unbudgeted <reason>", pkgName, fn.Name())
			return true
		})
	}
	return nil
}

// facadePkgPath is the public package; its NewBudgetMeter forwards to
// budget.NewMeter and counts as the same evidence.
const facadePkgPath = "repro"

// acquiresMeterBefore reports whether decl's body acquires a *budget.Meter
// before pos: budget.NewMeter / budget.NewMeterSSSP, a tenant's Admit, or
// the facade's NewBudgetMeter. This is the session rule's evidence — a
// Session.TopK call charges the meter it carries internally, so what the
// caller must show is where that meter came from, not a Charge of its own.
func acquiresMeterBefore(info *types.Info, decl *ast.FuncDecl, pos token.Pos) bool {
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= pos {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch {
		case fn.Pkg().Path() == budgetPkgPath:
			switch fn.Name() {
			case "NewMeter", "NewMeterSSSP", "Admit":
				found = true
				return false
			}
		case fn.Pkg().Path() == facadePkgPath && fn.Name() == "NewBudgetMeter":
			found = true
			return false
		}
		return true
	})
	return found
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package-level function or method), or nil for builtins, conversions,
// and indirect calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// chargesBefore reports whether decl's body contains a call to
// (*budget.Meter).Charge at a position before pos. Lexical order is a
// sound approximation of "on the path to the call" for this codebase's
// straight-line selector style; functions with cleverer control flow can
// use the directive.
func chargesBefore(info *types.Info, decl *ast.FuncDecl, pos token.Pos) bool {
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= pos {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Name() != "Charge" {
			return true
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv != nil && namedTypeIs(recv.Type(), budgetPkgPath, "Meter") {
			found = true
			return false
		}
		return true
	})
	return found
}
