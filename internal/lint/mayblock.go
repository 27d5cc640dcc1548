package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The mayblock fact: a module-wide, transitive classification of every
// function that can block the calling goroutine. Direct roots are
// channel operations (send, receive, range, select without a default
// clause), sync.Cond.Wait, sync.WaitGroup.Wait, time.Sleep,
// admission.Gate.Acquire, modeled disk I/O through storage.DiskModel
// (ChargeRead/ChargeWrite, including interface dispatch), and
// mountsvc.Cursor.Next (which may wait for flight data). A function
// that calls a mayblock function is itself mayblock. Function literals
// spawned with `go` do not block the function that spawns them and are
// excluded from their enclosing function's classification (the literal
// is classified on its own when it is a named function's body).
//
// lockcheck is the primary consumer: a mutex held across a mayblock
// call is the shape of both the PR 3 flight join race and the
// admission-gate starvation bug. The fact is also exposed to tests via
// Universe.MayBlock.

// resolveState tracks lazy fixed-point resolution of per-function facts.
type resolveState int8

const (
	unresolved resolveState = iota
	resolving
	resolvedFact
)

// funcFact aggregates the per-function facts the concurrency analyzers
// consult: whether the body blocks directly, which mutex struct fields
// it acquires, and which module functions it calls. Facts are collected
// eagerly per declaration (collectFactsFor) and resolved transitively
// on demand with memoized depth-first search; cycles in the call graph
// resolve conservatively to "does not block" on the back edge, which is
// the standard fixed-point treatment for recursion.
type funcFact struct {
	directBlock string         // first directly-blocking operation, "" if none
	directLocks []types.Object // mutex struct fields Lock/RLock'd directly
	callees     []*types.Func  // module-internal callees, source order

	blockState resolveState
	blocks     bool
	blockChain string // human-readable reason, e.g. "calls x → channel receive"

	lockState resolveState
	lockSet   map[types.Object]bool
}

// funcFactFor collects the direct facts for one function declaration.
func (u *Universe) funcFactFor(pkg *Package, fd *ast.FuncDecl) {
	obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok || fd.Body == nil {
		return
	}
	ff := &funcFact{}
	seenCallee := make(map[*types.Func]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// The spawned goroutine blocks itself, not its spawner.
			return false
		case *ast.SendStmt:
			ff.noteBlock("channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				ff.noteBlock("channel receive")
			}
		case *ast.RangeStmt:
			if isChanType(pkg.Info.TypeOf(n.X)) {
				ff.noteBlock("range over channel")
			}
		case *ast.SelectStmt:
			if !hasDefaultClause(n.Body) {
				ff.noteBlock("select without default")
			}
		case *ast.CallExpr:
			callee := calleeOf(pkg.Info, n)
			if desc, ok := blockingCall(callee); ok {
				ff.noteBlock(desc)
				return true
			}
			if ref, op, ok := lockCall(pkg.Info, n); ok {
				if (op == "Lock" || op == "RLock") && isStructField(ref.obj) {
					ff.directLocks = append(ff.directLocks, ref.obj)
					u.noteMutexName(ref)
				}
				return true
			}
			if fn := u.moduleCallee(callee); fn != nil && !seenCallee[fn] {
				seenCallee[fn] = true
				ff.callees = append(ff.callees, fn)
			}
		}
		return true
	})
	u.funcFacts[obj] = ff
}

func (ff *funcFact) noteBlock(desc string) {
	if ff.directBlock == "" {
		ff.directBlock = desc
	}
}

// moduleCallee returns the declared module (or fixture) function behind
// obj, or nil for stdlib, builtins, and unresolvable callees. Generic
// instantiations are folded onto their generic declaration.
func (u *Universe) moduleCallee(obj types.Object) *types.Func {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return nil
	}
	if p, ok := u.Packages[fn.Pkg().Path()]; ok && p.Standard {
		return nil
	}
	return fn
}

// MayBlock reports whether fn (a module function) can block, and if so
// a human-readable chain of why. Functions without a declared body in
// the universe (stdlib, interface methods) resolve to false — known
// blocking externals are matched as direct roots at their call sites
// instead (see blockingCall).
func (u *Universe) MayBlock(fn *types.Func) (string, bool) {
	if fn == nil {
		return "", false
	}
	return u.resolveBlock(fn.Origin())
}

func (u *Universe) resolveBlock(fn *types.Func) (string, bool) {
	ff := u.funcFacts[fn]
	if ff == nil {
		return "", false
	}
	switch ff.blockState {
	case resolvedFact:
		return ff.blockChain, ff.blocks
	case resolving:
		return "", false // call-graph cycle: break on the back edge
	}
	ff.blockState = resolving
	if ff.directBlock != "" {
		ff.blocks, ff.blockChain = true, ff.directBlock
	} else {
		for _, c := range ff.callees {
			if chain, ok := u.resolveBlock(c); ok {
				ff.blocks = true
				ff.blockChain = truncateChain("calls " + funcDisplay(c) + " → " + chain)
				break
			}
		}
	}
	ff.blockState = resolvedFact
	return ff.blockChain, ff.blocks
}

// lockSetOf returns the set of mutex struct fields fn may acquire,
// directly or through module calls (used for the cross-function edges
// of lockcheck's acquisition-order graph).
func (u *Universe) lockSetOf(fn *types.Func) map[types.Object]bool {
	if fn == nil {
		return nil
	}
	return u.resolveLockSet(fn.Origin())
}

func (u *Universe) resolveLockSet(fn *types.Func) map[types.Object]bool {
	ff := u.funcFacts[fn]
	if ff == nil {
		return nil
	}
	switch ff.lockState {
	case resolvedFact:
		return ff.lockSet
	case resolving:
		return nil // cycle: the initiating frame owns the union
	}
	ff.lockState = resolving
	set := make(map[types.Object]bool)
	for _, o := range ff.directLocks {
		set[o] = true
	}
	for _, c := range ff.callees {
		for o := range u.resolveLockSet(c) {
			set[o] = true
		}
	}
	ff.lockSet = set
	ff.lockState = resolvedFact
	return set
}

// blockingCall matches calls whose callee is a known blocking external
// or interface root: the bodies behind these either are out of the
// universe's sight (stdlib) or dispatch through an interface the
// analysis cannot resolve.
func blockingCall(obj types.Object) (string, bool) {
	switch {
	case methodOn(obj, "sync", "Cond", "Wait"):
		return "sync.Cond.Wait", true
	case methodOn(obj, "sync", "WaitGroup", "Wait"):
		return "sync.WaitGroup.Wait", true
	case funcIn(obj, "time", "Sleep"):
		return "time.Sleep", true
	case methodOn(obj, admissionPkgSuffix, "Gate", "Acquire"):
		return "admission.Gate.Acquire", true
	case methodOn(obj, mountsvcPkgSuffix, "Cursor", "Next"):
		return "mountsvc.Cursor.Next (may wait for flight data)", true
	case isDiskModelCharge(obj):
		return "storage.DiskModel I/O charge", true
	}
	return "", false
}

const storagePkgSuffix = "internal/storage"

// isDiskModelCharge matches modeled disk I/O: any ChargeRead/ChargeWrite
// method declared in internal/storage (the DiskModel interface methods
// and every concrete model implementing them).
func isDiskModelCharge(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || (fn.Name() != "ChargeRead" && fn.Name() != "ChargeWrite") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return pkgPathHasSuffix(fn.Pkg(), storagePkgSuffix)
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

func isStructField(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.IsField()
}

// funcDisplay renders a function for diagnostics: Recv.Name for
// methods, pkg.Name for package-level functions.
func funcDisplay(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// truncateChain caps diagnostic reason chains at a readable length.
func truncateChain(s string) string {
	const max = 140
	if len(s) <= max {
		return s
	}
	return s[:max] + "…"
}
