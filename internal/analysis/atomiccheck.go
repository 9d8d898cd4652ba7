package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicCheck enforces the atomic-everywhere rule: once any site accesses a
// storage location through sync/atomic, every site must. A plain load racing
// an atomic store is still a data race (and, worse, one the race detector
// only catches when the interleaving happens), so mixed access is a finding
// even when today's call structure makes it safe.
//
// The check is alias-aware via the Flow union-find: `vis := r.vis` followed
// by `atomic.CompareAndSwapUint64(&vis[w], ...)` marks the `r.vis` storage
// class atomic, and a later plain `s.vis[w] |= bit` in another function of
// the same package is flagged. In-package atomic accessors (pointer params
// used only through sync/atomic, like a CAS-loop orWord helper) count as
// atomic sites for their arguments.
//
// Deliberately mixed access — phase-separated plain initialization of a
// bitmap that is CAS-claimed during traversal, word-partitioned plain writes
// — is silenced with a reasoned //convlint:shared directive on the function
// or the specific line.
//
// The check also flags by-value copies of sync/atomic types (atomic.Int64
// and friends), which fork the counter and discard its identity.
var AtomicCheck = &Analyzer{
	Name: "atomiccheck",
	Doc:  "storage accessed via sync/atomic anywhere must be accessed atomically everywhere",
	Run:  runAtomicCheck,
}

func runAtomicCheck(pass *Pass) error {
	flow := NewFlow(pass)
	info := pass.TypesInfo

	// Pass 1: collect atomic storage roots and remember which expressions
	// are themselves the atomic access (so pass 2 skips them).
	atomicRoots := map[types.Object]token.Pos{} // canonical root -> representative atomic site
	atomicArgs := map[ast.Expr]bool{}           // &x arguments of atomic calls (the x)

	markAtomicArg := func(arg ast.Expr) {
		// Atomic call operands are &expr (or a *T-typed value; then the
		// pointee root is out of lexical reach and we only record the arg).
		un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
		if !ok || un.Op != token.AND {
			return
		}
		target := ast.Unparen(un.X)
		atomicArgs[target] = true
		if root := flow.CanonRoot(target); root != nil {
			if _, seen := atomicRoots[root]; !seen {
				atomicRoots[root] = arg.Pos()
			}
		}
	}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(info, call)
			if callee == nil {
				return true
			}
			if isAtomicFunc(callee) {
				for _, arg := range call.Args {
					markAtomicArg(arg)
				}
				return true
			}
			if idxs := flow.AtomicParamIndices(callee); len(idxs) > 0 {
				for i, arg := range call.Args {
					if idxs[i] {
						markAtomicArg(arg)
					}
				}
			}
			return true
		})
	}

	if len(atomicRoots) > 0 {
		checkPlainAccess(pass, flow, atomicRoots, atomicArgs)
	}
	checkAtomicValueCopies(pass, flow)
	return nil
}

// checkPlainAccess flags non-atomic element or value accesses of storage
// roots that have at least one atomic site.
func checkPlainAccess(pass *Pass, flow *Flow, atomicRoots map[types.Object]token.Pos, atomicArgs map[ast.Expr]bool) {
	info := pass.TypesInfo
	for _, file := range pass.Files {
		inspectStack(file, func(n ast.Node, stack []ast.Node) bool {
			var base ast.Expr
			switch x := n.(type) {
			case *ast.IndexExpr:
				base = x.X
			case *ast.SliceExpr:
				base = x.X
			case *ast.Ident:
				// Scalar roots: a bare use of the variable is a plain access
				// unless it is the operand of an atomic &x.
				v, ok := info.Uses[x].(*types.Var)
				if !ok || v.IsField() {
					return true
				}
				if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
					// Slice headers are aliased freely; only element access
					// races, which the Index/Slice cases catch.
					return true
				}
				root := flow.Canon(v)
				site, isAtomic := atomicRoots[root]
				if !isAtomic || atomicArgs[ast.Expr(x)] {
					return true
				}
				// Selector bases (x.f) are field paths — the field itself is
				// the root, handled when the SelectorExpr resolves.
				if len(stack) > 0 {
					if sel, ok := stack[len(stack)-1].(*ast.SelectorExpr); ok && sel.X == ast.Expr(x) {
						return true
					}
					if un, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && un.Op == token.AND {
						// &v without an atomic call around it: the pointer
						// escapes our reasoning; let it pass (capturecheck
						// owns shared-pointer hygiene).
						return true
					}
				}
				report(pass, file, x.Pos(), "plain access of %s, which is accessed atomically at %s",
					v.Name(), pass.Fset.Position(site))
				return true
			default:
				return true
			}

			// Element/slice access of an atomic root.
			if atomicArgs[n.(ast.Expr)] {
				return true
			}
			// Skip if the base expression itself is inside an atomic arg
			// (&words[i] marks the IndexExpr, handled above).
			root := flow.CanonRoot(base)
			if root == nil {
				return true
			}
			site, isAtomic := atomicRoots[root]
			if !isAtomic {
				return true
			}
			report(pass, file, n.Pos(), "plain access of %s elements; %s is accessed atomically at %s",
				rootName(root), rootName(root), pass.Fset.Position(site))
			return false // don't descend and re-flag the base
		})
	}
}

// checkAtomicValueCopies flags value copies of sync/atomic counter types.
func checkAtomicValueCopies(pass *Pass, flow *Flow) {
	info := pass.TypesInfo
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok || len(assign.Lhs) != len(assign.Rhs) {
				return true
			}
			for i, rhs := range assign.Rhs {
				t := info.TypeOf(rhs)
				if t == nil || !isAtomicNamedType(t) {
					continue
				}
				// Assigning the value (not a pointer) forks the counter.
				if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
					continue
				}
				if suppressedAt(pass, file, rhs.Pos(), "shared") {
					continue
				}
				pass.Reportf(assign.Lhs[i].Pos(), "value copy of %s forks the atomic variable; use a pointer", t)
			}
			return true
		})
	}
	_ = flow
}

// isAtomicNamedType reports whether t is one of sync/atomic's named types
// (atomic.Int64, atomic.Uint64, atomic.Bool, ...).
func isAtomicNamedType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync/atomic"
}

// rootName names a storage root for diagnostics.
func rootName(o types.Object) string {
	if v, ok := o.(*types.Var); ok && v.IsField() {
		return v.Name()
	}
	return o.Name()
}

// report emits a diagnostic unless a //convlint:shared directive covers pos.
func report(pass *Pass, file *ast.File, pos token.Pos, format string, args ...any) {
	if suppressedAt(pass, file, pos, "shared") {
		return
	}
	pass.Reportf(pos, format, args...)
}
