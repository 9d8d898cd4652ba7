package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Function-level dataflow over one type-checked package, shared by the
// concurrency-contract analyzers (atomiccheck, capturecheck, scratchescape,
// determinism). Three facts are computed, all on the standard library's
// go/ast + go/types only:
//
//   - A launch walk: which function literals may run on a goroutine other
//     than their creator's. A literal is launched when a `go` statement
//     starts it (or passes it to the started call, the pprof.Do idiom), when
//     it is handed to a spawner — an in-package function that forwards a
//     func-typed parameter onto a goroutine, like sssp.sweepWorker — or
//     transitively: literals nested in, bound to variables referenced from,
//     or otherwise reachable from a launched literal run on its goroutine.
//
//   - A capture walk: for every literal, the variables it closes over and
//     how it touches them (read, whole-variable write, field write, element
//     write/index, address-of), plus whether the variable is the loop
//     variable of an enclosing for/range statement.
//
//   - Def-use aliasing: a union-find over storage roots (struct fields,
//     package variables, locals) merged at every `a = b` copy of slice or
//     pointer values, so `vis := r.vis` and `r.vis = s.vis` all name one
//     storage class. atomiccheck uses it to see that a CAS in one function
//     and a plain store in another hit the same bitmap.
//
// The walk is flow-insensitive and intra-package by design: it over-
// approximates sharing (a literal marked launched may in fact run inline),
// which is the right polarity for analyzers whose findings can be silenced
// with a reasoned //convlint:shared directive.

// AccessKind classifies how a closure touches a captured variable.
type AccessKind int

const (
	// AccessRead covers value reads, method calls, and passing the variable
	// (or an element/field of it) by value.
	AccessRead AccessKind = iota
	// AccessWrite is a whole-variable assignment or ++/-- of the captured
	// variable itself (v = x, v++, v = append(v, ...)).
	AccessWrite
	// AccessFieldWrite stores through a field path rooted at the variable
	// (v.f = x), mutating state every holder of v observes.
	AccessFieldWrite
	// AccessElemWrite stores through an index path rooted at the variable
	// (v[i] = x, v[i].f = x) — the index-partitioned worker idiom.
	AccessElemWrite
	// AccessAddr takes the address of the whole variable (&v), after which
	// any aliasing discipline is out of lexical reach.
	AccessAddr
	// AccessAddrElem takes the address of an element (&v[i]), the
	// per-worker-slot idiom (s := &scratches[w]).
	AccessAddrElem
)

// Capture is one variable a function literal closes over.
type Capture struct {
	Var *types.Var
	// Kinds holds the distinct access kinds observed, with a representative
	// position each.
	Kinds map[AccessKind]token.Pos
	// LoopVar reports that Var is the loop variable of a for/range statement
	// that encloses the literal.
	LoopVar bool
}

// Has reports whether any of the given kinds was observed, returning the
// first matching representative position.
func (c *Capture) Has(kinds ...AccessKind) (token.Pos, bool) {
	for _, k := range kinds {
		if pos, ok := c.Kinds[k]; ok {
			return pos, true
		}
	}
	return token.NoPos, false
}

// Closure is the dataflow summary of one function literal.
type Closure struct {
	Lit *ast.FuncLit
	// Decl is the top-level function declaration the literal appears in
	// (nil for package-level initializer expressions).
	Decl *ast.FuncDecl
	// Launched reports the literal may execute on another goroutine.
	Launched bool
	// LaunchInLoop reports a launch site inside a for/range statement, i.e.
	// several instances of the literal may run concurrently.
	LaunchInLoop bool
	// Captured maps each closed-over variable to its accesses.
	Captured map[*types.Var]*Capture
}

// Flow is the package-level dataflow fact base. Build it once per Pass with
// NewFlow and share it across analyzers (each analyzer constructs its own in
// this suite; construction is two linear walks plus small fixpoints).
type Flow struct {
	pass *Pass

	// closures maps every function literal in the package to its summary.
	closures map[*ast.FuncLit]*Closure
	// funcDecls maps type-checker function objects to their declarations.
	funcDecls map[*types.Func]*ast.FuncDecl
	// spawnerParams marks func-typed parameters that may run on another
	// goroutine: spawnerParams[fn][i] for parameter index i of fn.
	spawnerParams map[*types.Func]map[int]bool
	// atomicParams marks pointer parameters used exclusively through
	// sync/atomic (the CAS-loop orWord idiom): atomicParams[fn][i].
	atomicParams map[*types.Func]map[int]bool
	// aliasParent is the union-find forest over storage roots.
	aliasParent map[types.Object]types.Object
	// litVars maps variables to the literals assigned to them, for the
	// launch fixpoint (foldEcc := func(...){...}; go worker(foldEcc)).
	litVars map[*types.Var][]*ast.FuncLit
	// enclosing maps every literal to its lexical parent stack, innermost
	// last, used for loop-variable detection.
	litStacks map[*ast.FuncLit][]ast.Node
}

// NewFlow computes the dataflow fact base for the pass's package.
func NewFlow(pass *Pass) *Flow {
	f := &Flow{
		pass:          pass,
		closures:      map[*ast.FuncLit]*Closure{},
		funcDecls:     map[*types.Func]*ast.FuncDecl{},
		spawnerParams: map[*types.Func]map[int]bool{},
		atomicParams:  map[*types.Func]map[int]bool{},
		aliasParent:   map[types.Object]types.Object{},
		litVars:       map[*types.Var][]*ast.FuncLit{},
		litStacks:     map[*ast.FuncLit][]ast.Node{},
	}
	f.collect()
	f.launchFixpoint()
	f.captureWalk()
	f.atomicParamWalk()
	return f
}

// inspectStack walks root like ast.Inspect but hands fn the stack of open
// ancestor nodes (outermost first, not including n itself).
func inspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// collect gathers declarations, literals, literal-to-variable bindings, and
// the alias union-find in one pass over the files.
func (f *Flow) collect() {
	info := f.pass.TypesInfo
	for _, file := range f.pass.Files {
		var curDecl *ast.FuncDecl
		inspectStack(file, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				curDecl = n
				if obj, ok := info.Defs[n.Name].(*types.Func); ok {
					f.funcDecls[obj] = n
				}
			case *ast.FuncLit:
				f.closures[n] = &Closure{Lit: n, Decl: curDecl, Captured: map[*types.Var]*Capture{}}
				f.litStacks[n] = append([]ast.Node(nil), stack...)
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						f.recordBinding(n.Lhs[i], n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i := range n.Names {
						f.recordBinding(n.Names[i], n.Values[i])
					}
				}
			}
			return true
		})
	}
}

// recordBinding handles one lhs = rhs pair: function literals bound to
// variables feed the launch fixpoint; slice/pointer copies merge alias roots.
func (f *Flow) recordBinding(lhs, rhs ast.Expr) {
	info := f.pass.TypesInfo
	if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok {
		if id, ok := lhs.(*ast.Ident); ok {
			if v := f.varOf(id); v != nil {
				f.litVars[v] = append(f.litVars[v], lit)
			}
		}
		return
	}
	lo, ro := f.RootObj(lhs), f.RootObj(rhs)
	if lo == nil || ro == nil || lo == ro {
		return
	}
	// Only reference-typed copies alias storage; value copies fork it.
	if t := info.TypeOf(rhs); t != nil {
		switch t.Underlying().(type) {
		case *types.Slice, *types.Pointer:
			f.union(lo, ro)
		}
	}
}

// varOf resolves an identifier to its variable object (definition or use).
func (f *Flow) varOf(id *ast.Ident) *types.Var {
	info := f.pass.TypesInfo
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

// RootObj resolves an expression to the storage root it names: the variable
// or struct field at the base of any indexing/slicing/deref/selection chain.
// Returns nil for expressions without a nameable root (call results,
// literals).
func (f *Flow) RootObj(e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			if v := f.varOf(x); v != nil {
				return v
			}
			return nil
		case *ast.SelectorExpr:
			// A field or package-variable selection is itself the root; the
			// receiver chain only locates it.
			if v, ok := f.pass.TypesInfo.Uses[x.Sel].(*types.Var); ok {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

// find returns the union-find representative of o.
func (f *Flow) find(o types.Object) types.Object {
	for {
		p, ok := f.aliasParent[o]
		if !ok || p == o {
			return o
		}
		// Path halving.
		if gp, ok := f.aliasParent[p]; ok {
			f.aliasParent[o] = gp
		}
		o = p
	}
}

func (f *Flow) union(a, b types.Object) {
	ra, rb := f.find(a), f.find(b)
	if ra != rb {
		f.aliasParent[ra] = rb
	}
}

// Canon returns the canonical storage root for o: every variable or field
// connected to o by reference-copy assignments maps to the same object.
func (f *Flow) Canon(o types.Object) types.Object { return f.find(o) }

// CanonRoot resolves an expression to its canonical storage root, or nil.
func (f *Flow) CanonRoot(e ast.Expr) types.Object {
	o := f.RootObj(e)
	if o == nil {
		return nil
	}
	return f.find(o)
}

// launchFixpoint marks launched literals. Seed: literals started by (or
// passed to) `go` statements. Then iterate: spawner parameters propagate
// launches through in-package calls; literals nested in or referenced from
// launched literals are launched.
func (f *Flow) launchFixpoint() {
	info := f.pass.TypesInfo

	launchLit := func(lit *ast.FuncLit, inLoop bool) bool {
		c := f.closures[lit]
		if c == nil {
			return false
		}
		changed := !c.Launched || (inLoop && !c.LaunchInLoop)
		c.Launched = true
		c.LaunchInLoop = c.LaunchInLoop || inLoop
		return changed
	}
	markSpawner := func(fn *types.Func, idx int) bool {
		if fn == nil || idx < 0 {
			return false
		}
		set := f.spawnerParams[fn]
		if set == nil {
			set = map[int]bool{}
			f.spawnerParams[fn] = set
		}
		if set[idx] {
			return false
		}
		set[idx] = true
		return true
	}
	// paramIndex returns which parameter of the enclosing declaration obj is,
	// or -1.
	paramIndex := func(decl *ast.FuncDecl, obj types.Object) int {
		if decl == nil || decl.Type.Params == nil {
			return -1
		}
		idx := 0
		for _, field := range decl.Type.Params.List {
			for _, name := range field.Names {
				if info.Defs[name] == obj {
					return idx
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
		return -1
	}
	inLoop := func(stack []ast.Node, within ast.Node) bool {
		for _, n := range stack {
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				return true
			case *ast.FuncLit, *ast.FuncDecl:
				// Loops outside the nearest function boundary don't multiply
				// this launch; reset.
			}
		}
		_ = within
		return false
	}
	// loopScope trims the stack to the innermost function, so loops in outer
	// functions don't count.
	trimToFunc := func(stack []ast.Node) []ast.Node {
		for i := len(stack) - 1; i >= 0; i-- {
			switch stack[i].(type) {
			case *ast.FuncLit, *ast.FuncDecl:
				return stack[i+1:]
			}
		}
		return stack
	}

	for pass := 0; ; pass++ {
		changed := false
		for _, file := range f.pass.Files {
			var curDecl *ast.FuncDecl
			inspectStack(file, func(n ast.Node, stack []ast.Node) bool {
				if fd, ok := n.(*ast.FuncDecl); ok {
					curDecl = fd
				}
				// declObj is the function object of the enclosing declaration.
				var declObj *types.Func
				if curDecl != nil {
					declObj, _ = info.Defs[curDecl.Name].(*types.Func)
				}

				launchedCtx := false // are we lexically inside a launched literal?
				for _, a := range stack {
					if lit, ok := a.(*ast.FuncLit); ok && f.closures[lit] != nil && f.closures[lit].Launched {
						launchedCtx = true
						break
					}
				}

				switch n := n.(type) {
				case *ast.GoStmt:
					loop := inLoop(trimToFunc(stack), n)
					if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
						changed = launchLit(lit, loop) || changed
					}
					for _, arg := range n.Call.Args {
						if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
							changed = launchLit(lit, loop) || changed
						}
						changed = f.markLaunchedValue(arg, loop, launchLit) || changed
					}
					// `go p(...)` / passing p to a go'd call launches param p.
					if id, ok := ast.Unparen(n.Call.Fun).(*ast.Ident); ok {
						if idx := paramIndex(curDecl, info.Uses[id]); idx >= 0 {
							changed = markSpawner(declObj, idx) || changed
						}
					}
					for _, arg := range n.Call.Args {
						if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
							if idx := paramIndex(curDecl, info.Uses[id]); idx >= 0 {
								changed = markSpawner(declObj, idx) || changed
							}
						}
					}
				case *ast.CallExpr:
					callee := calleeFunc(info, n)
					spawnIdx := f.spawnerParams[callee]
					for i, arg := range n.Args {
						argLit, isLit := ast.Unparen(arg).(*ast.FuncLit)
						spawned := spawnIdx[i]
						if spawned {
							loop := inLoop(trimToFunc(stack), n)
							if isLit {
								changed = launchLit(argLit, loop) || changed
							} else {
								changed = f.markLaunchedValue(arg, loop, launchLit) || changed
							}
							// Forwarding one of our own params to a spawner
							// makes us a spawner for it.
							if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
								if idx := paramIndex(curDecl, info.Uses[id]); idx >= 0 {
									changed = markSpawner(declObj, idx) || changed
								}
							}
						}
					}
					// Calling a func-typed parameter inside a launched literal
					// means callers' arguments run on that goroutine.
					if launchedCtx {
						if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
							if idx := paramIndex(curDecl, info.Uses[id]); idx >= 0 {
								changed = markSpawner(declObj, idx) || changed
							}
						}
					}
				case *ast.Ident:
					// Any reference to a literal-bound variable or func param
					// from inside a launched literal escapes to that goroutine.
					if launchedCtx {
						if v := f.varOf(n); v != nil {
							loop := false
							for _, a := range stack {
								if lit, ok := a.(*ast.FuncLit); ok && f.closures[lit] != nil && f.closures[lit].Launched {
									loop = f.closures[lit].LaunchInLoop
									break
								}
							}
							for _, lit := range f.litVars[v] {
								changed = launchLit(lit, loop) || changed
							}
							if idx := paramIndex(curDecl, v); idx >= 0 {
								changed = markSpawner(declObj, idx) || changed
							}
						}
					}
				case *ast.FuncLit:
					// Nested literals run on their parent's goroutine.
					if launchedCtx {
						parentLoop := false
						for _, a := range stack {
							if lit, ok := a.(*ast.FuncLit); ok && f.closures[lit] != nil && f.closures[lit].Launched {
								parentLoop = f.closures[lit].LaunchInLoop
								break
							}
						}
						changed = launchLit(n, parentLoop) || changed
					}
				}
				return true
			})
		}
		if !changed || pass > 10 {
			return
		}
	}
}

// markLaunchedValue marks literals bound to a variable-valued argument as
// launched (the `go worker(fn)` form where fn holds literals).
func (f *Flow) markLaunchedValue(arg ast.Expr, inLoop bool, launch func(*ast.FuncLit, bool) bool) bool {
	id, ok := ast.Unparen(arg).(*ast.Ident)
	if !ok {
		return false
	}
	v := f.varOf(id)
	if v == nil {
		return false
	}
	changed := false
	for _, lit := range f.litVars[v] {
		changed = launch(lit, inLoop) || changed
	}
	return changed
}

// captureWalk fills every closure's captured-variable map.
func (f *Flow) captureWalk() {
	for lit, c := range f.closures {
		f.captureOne(lit, c)
	}
}

// declaredWithin reports whether obj's declaration lies inside node.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj.Pos() != token.NoPos && node.Pos() <= obj.Pos() && obj.Pos() <= node.End()
}

func (f *Flow) captureOne(lit *ast.FuncLit, c *Closure) {
	info := f.pass.TypesInfo
	pkgScope := f.pass.Pkg.Scope()
	record := func(v *types.Var, kind AccessKind, pos token.Pos) {
		cap := c.Captured[v]
		if cap == nil {
			cap = &Capture{Var: v, Kinds: map[AccessKind]token.Pos{}}
			c.Captured[v] = cap
			cap.LoopVar = f.isLoopVar(v, lit)
		}
		if _, ok := cap.Kinds[kind]; !ok {
			cap.Kinds[kind] = pos
		}
	}
	inspectStack(lit.Body, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured = declared in an enclosing function, not in this literal,
		// not package-level (package state is atomiccheck's beat).
		//convlint:nondet scope identity is the semantics, not allocation order
		if v.Parent() == pkgScope || v.Parent() == types.Universe || declaredWithin(v, lit) {
			return true
		}
		kind := classifyAccess(id, stack)
		record(v, kind, id.Pos())
		return true
	})
}

// classifyAccess determines how the identifier at the bottom of stack is
// used: written whole, written through a field or element path, address
// taken, or read.
func classifyAccess(id *ast.Ident, stack []ast.Node) AccessKind {
	// Climb the selector/index/slice/deref chain rooted at id.
	cur := ast.Node(id)
	sawSelector, sawIndex := false, false
	i := len(stack) - 1
	for ; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			cur = p
			continue
		case *ast.SelectorExpr:
			if p.X == cur {
				sawSelector = true
				cur = p
				continue
			}
		case *ast.IndexExpr:
			if p.X == cur {
				sawIndex = true
				cur = p
				continue
			}
			if p.Index == cur {
				return AccessRead
			}
		case *ast.SliceExpr:
			if p.X == cur {
				sawIndex = true
				cur = p
				continue
			}
		case *ast.StarExpr:
			if p.X == cur {
				cur = p
				continue
			}
		}
		break
	}
	if i < 0 {
		return AccessRead
	}
	switch p := stack[i].(type) {
	case *ast.AssignStmt:
		for _, l := range p.Lhs {
			if l == cur {
				switch {
				case sawIndex:
					return AccessElemWrite
				case sawSelector:
					return AccessFieldWrite
				default:
					return AccessWrite
				}
			}
		}
	case *ast.IncDecStmt:
		if p.X == cur {
			switch {
			case sawIndex:
				return AccessElemWrite
			case sawSelector:
				return AccessFieldWrite
			default:
				return AccessWrite
			}
		}
	case *ast.UnaryExpr:
		if p.Op == token.AND && p.X == cur {
			if sawIndex {
				return AccessAddrElem
			}
			return AccessAddr
		}
	}
	return AccessRead
}

// isLoopVar reports whether v is the loop variable of a for/range statement
// that encloses lit (the classic captured-iteration-variable shape).
func (f *Flow) isLoopVar(v *types.Var, lit *ast.FuncLit) bool {
	for _, n := range f.litStacks[lit] {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if (n.Key != nil && declaredAt(f.pass.TypesInfo, n.Key, v)) ||
				(n.Value != nil && declaredAt(f.pass.TypesInfo, n.Value, v)) {
				return true
			}
		case *ast.ForStmt:
			if n.Init != nil && declaredWithin(v, n.Init) {
				return true
			}
		}
	}
	return false
}

// declaredAt reports whether expr is an identifier defining v.
func declaredAt(info *types.Info, expr ast.Expr, v *types.Var) bool {
	id, ok := expr.(*ast.Ident)
	return ok && info.Defs[id] == v
}

// atomicParamWalk computes which pointer parameters are used exclusively
// through sync/atomic, so calls like orWord(&words[i], v) count as atomic
// accesses of words. One backward pass then a fixpoint for accessor chains.
func (f *Flow) atomicParamWalk() {
	for pass := 0; pass < 4; pass++ {
		changed := false
		for fn, decl := range f.funcDecls {
			if decl.Body == nil {
				continue
			}
			sig := fn.Type().(*types.Signature)
			for i := 0; i < sig.Params().Len(); i++ {
				p := sig.Params().At(i)
				if f.atomicParams[fn][i] {
					continue
				}
				ptr, ok := p.Type().Underlying().(*types.Pointer)
				if !ok {
					continue
				}
				if _, ok := ptr.Elem().Underlying().(*types.Basic); !ok {
					continue
				}
				if f.paramOnlyAtomic(decl, p) {
					set := f.atomicParams[fn]
					if set == nil {
						set = map[int]bool{}
						f.atomicParams[fn] = set
					}
					set[i] = true
					changed = true
				}
			}
		}
		if !changed {
			return
		}
	}
}

// paramOnlyAtomic reports whether every use of p in decl's body is as a
// pointer argument to sync/atomic (or to an already-classified atomic
// accessor in this package).
func (f *Flow) paramOnlyAtomic(decl *ast.FuncDecl, p *types.Var) bool {
	info := f.pass.TypesInfo
	used, ok := false, true
	inspectStack(decl.Body, func(n ast.Node, stack []ast.Node) bool {
		id, isIdent := n.(*ast.Ident)
		if !isIdent || info.Uses[id] != p {
			return true
		}
		used = true
		// The use must be an argument of an atomic call.
		if len(stack) == 0 {
			ok = false
			return true
		}
		call, isCall := stack[len(stack)-1].(*ast.CallExpr)
		if !isCall {
			ok = false
			return true
		}
		callee := calleeFunc(info, call)
		if callee == nil {
			ok = false
			return true
		}
		if isAtomicFunc(callee) {
			return true
		}
		// Passing to another atomic accessor at an atomic index is fine.
		for i, arg := range call.Args {
			if ast.Unparen(arg) == ast.Node(id) && f.atomicParams[callee][i] {
				return true
			}
		}
		ok = false
		return true
	})
	return used && ok
}

// AtomicParamIndices returns the parameter indices of fn proven to be
// accessed only through sync/atomic, if any.
func (f *Flow) AtomicParamIndices(fn *types.Func) map[int]bool { return f.atomicParams[fn] }

// Closures returns the summary of every function literal in the package.
func (f *Flow) Closures() map[*ast.FuncLit]*Closure { return f.closures }

// ClosureOf returns the summary for lit (nil if lit is foreign to the pass).
func (f *Flow) ClosureOf(lit *ast.FuncLit) *Closure { return f.closures[lit] }

// isAtomicFunc reports whether fn is a package-level function of
// sync/atomic.
func isAtomicFunc(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" &&
		fn.Type().(*types.Signature).Recv() == nil
}
