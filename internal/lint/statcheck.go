package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// StatCheck enforces the stats-accounting discipline every package
// hand-rolls: counters live in structs named *Stats, owned by a struct
// that also owns a mutex, and
//
//   - fields of a guarded stats struct are written only while a lock is
//     held (or via sync/atomic, whose &field arguments are not plain
//     writes and pass untouched). A stats struct is "guarded" when some
//     module struct holding a sync.Mutex/RWMutex reaches it through its
//     fields (Env{statsMu, Mounts *MountStats}, Gate{mu, sessions →
//     SessionStats}, BufferPool{mu, stats PoolStats}); free-standing
//     snapshot and metadata types (zone-map RecordStats, result Stats)
//     are single-owner by construction and unconstrained. Writes inside
//     function literals are attributed to the call site's locking
//     contract (the addMountStats callback pattern) — except goroutine
//     bodies, which run concurrently and are checked on their own.
//     Functions whose name ends in "Locked" execute under the caller's
//     lock by convention.
//   - Stats() accessors return by-value snapshots: in a method whose
//     result is a stats struct value, a receiver-rooted map or slice
//     must not be assigned, returned, or placed in a composite literal
//     — it would alias guarded state past the unlock. Copy per entry.
//   - every counter declared in a guarded stats struct is written
//     somewhere in the module (dead-counter detection), reported at the
//     field's declaration.
var StatCheck = &Analyzer{
	Name: "statcheck",
	Doc:  "flags unguarded writes to guarded *Stats fields, aliasing stats snapshots, and dead counters",
	Run:  runStatCheck,
}

// isStatsNamed reports whether named is a module (or fixture) struct
// type whose name ends in "Stats".
func (u *Universe) isStatsNamed(named *types.Named) bool {
	obj := named.Obj()
	if obj == nil || !strings.HasSuffix(obj.Name(), "Stats") {
		return false
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return false
	}
	if obj.Pkg() == nil {
		return false
	}
	if p, ok := u.Packages[obj.Pkg().Path()]; ok && p.Standard {
		return false
	}
	return true
}

// indexStatsStructs records, for every stats struct declared in pkg,
// the owner of each of its fields (the dead-counter rule and the write
// rule both resolve fields through this index; a selection's receiver
// is the embedding struct, not the declaring one, so the index is
// keyed by the field object itself).
func (u *Universe) indexStatsStructs(pkg *Package) {
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || !u.isStatsNamed(named) {
			continue
		}
		st := named.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			u.statsFieldOwner[st.Field(i)] = named
		}
	}
}

// statsWriteFacts records every write to a stats-struct field in pkg:
// selector assignments and ++/--, address-taking (sync/atomic helpers
// operate through &s.field), keyed and positional composite literals,
// and whole-struct stores into a field or through a pointer. A copy into
// a local (the Stats() snapshot) and &s.stats (an update callback's
// argument) write no field. Collected at load so the dead-counter rule
// sees the entire module before any package's pass runs.
func (u *Universe) statsWriteFacts(pkg *Package) {
	u.indexStatsStructs(pkg)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					u.recordStatsWrite(pkg, lhs, true)
				}
			case *ast.IncDecStmt:
				u.recordStatsWrite(pkg, n.X, true)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					u.recordStatsWrite(pkg, n.X, false)
				}
			case *ast.CompositeLit:
				named := derefNamed(pkg.Info.TypeOf(n))
				if named == nil || !u.isStatsNamed(named) {
					return true
				}
				st := named.Underlying().(*types.Struct)
				keyed := false
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						keyed = true
						if id, ok := kv.Key.(*ast.Ident); ok {
							if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
								u.markStatsWrite(pkg, v)
							}
						}
					}
				}
				if !keyed && len(n.Elts) > 0 {
					for i := 0; i < st.NumFields(); i++ {
						u.markStatsWrite(pkg, st.Field(i))
					}
				}
			}
			return true
		})
	}
}

// recordStatsWrite handles one write target: a stats-struct field
// selector, or, when whole is set, a field or dereference whose whole
// type is a stats struct (which writes every field). A bare local is a
// private copy, not a write.
func (u *Universe) recordStatsWrite(pkg *Package, e ast.Expr, whole bool) {
	e = ast.Unparen(e)
	if star, ok := e.(*ast.StarExpr); ok {
		e = ast.Unparen(star.X)
	} else if _, ok := e.(*ast.SelectorExpr); !ok {
		whole = false
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if s, ok := pkg.Info.Selections[sel]; ok {
			if v, ok := s.Obj().(*types.Var); ok {
				if _, isStats := u.statsFieldOwner[v]; isStats {
					u.markStatsWrite(pkg, v)
				}
			}
		}
	}
	if !whole {
		return
	}
	if named := derefNamed(pkg.Info.TypeOf(e)); named != nil && u.isStatsNamed(named) {
		st := named.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			u.markStatsWrite(pkg, st.Field(i))
		}
	}
}

func (u *Universe) markStatsWrite(pkg *Package, v *types.Var) {
	set := u.statsWrites[v]
	if set == nil {
		set = make(map[string]bool)
		u.statsWrites[v] = set
	}
	set[pkg.PkgPath] = true
}

// --- guarded classification ---

// ensureGuardedStats computes which stats structs are reachable from a
// mutex-owning struct: once over the module, then incrementally for
// fixture packages loaded outside it.
func (u *Universe) ensureGuardedStats(pkg *Package) {
	if u.guardedStat == nil {
		u.guardedStat = make(map[*types.Named]bool)
		u.classifiedPkgs = make(map[*Package]bool)
		for _, p := range u.Module {
			u.classifyGuarded(p)
		}
	}
	inModule := false
	for _, p := range u.Module {
		if p == pkg {
			inModule = true
			break
		}
	}
	if !inModule && !u.classifiedPkgs[pkg] {
		u.classifyGuarded(pkg)
	}
}

func (u *Universe) classifyGuarded(pkg *Package) {
	u.classifiedPkgs[pkg] = true
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok || !hasMutexField(st) {
			continue
		}
		visited := make(map[*types.Named]bool)
		u.markReachableStats(st, visited)
	}
}

func hasMutexField(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		t := st.Field(i).Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
				(obj.Name() == "Mutex" || obj.Name() == "RWMutex") {
				return true
			}
		}
	}
	return false
}

// markReachableStats walks st's field types through pointers, slices,
// arrays, and map values, marking every stats struct reached (and
// recursing through intermediate structs like admission's
// sessionState).
func (u *Universe) markReachableStats(st *types.Struct, visited map[*types.Named]bool) {
	for i := 0; i < st.NumFields(); i++ {
		u.markReachableType(st.Field(i).Type(), visited)
	}
}

func (u *Universe) markReachableType(t types.Type, visited map[*types.Named]bool) {
	switch t := t.(type) {
	case *types.Pointer:
		u.markReachableType(t.Elem(), visited)
	case *types.Slice:
		u.markReachableType(t.Elem(), visited)
	case *types.Array:
		u.markReachableType(t.Elem(), visited)
	case *types.Map:
		u.markReachableType(t.Elem(), visited)
	case *types.Chan:
		u.markReachableType(t.Elem(), visited)
	case *types.Named:
		if visited[t] {
			return
		}
		visited[t] = true
		if u.isStatsNamed(t) {
			u.guardedStat[t] = true
		}
		if st, ok := t.Underlying().(*types.Struct); ok {
			u.markReachableStats(st, visited)
		}
	}
}

// derefNamed returns the named type behind t, unwrapping one pointer.
func derefNamed(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// --- the analyzer ---

func runStatCheck(pass *Pass) {
	pass.Universe.ensureGuardedStats(pass.Pkg)
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				deadCounterCheck(pass, d)
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				statWriteUnits(pass, d)
				snapshotCheck(pass, d)
			}
		}
	}
}

// deadCounterCheck reports numeric fields of guarded stats structs
// declared in this package that no module package ever writes.
func deadCounterCheck(pass *Pass, d *ast.GenDecl) {
	u := pass.Universe
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		tn, ok := pass.Pkg.Info.Defs[ts.Name].(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || !u.isStatsNamed(named) || !u.guardedStat[named] {
			continue
		}
		st := named.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !isCounterType(f.Type()) {
				continue
			}
			live := false
			for p := range u.statsWrites[f] {
				if p == pass.Pkg.PkgPath {
					live = true
					break
				}
				if lp, ok := u.Packages[p]; ok && !lp.Standard {
					live = true
					break
				}
			}
			if !live {
				pass.Reportf(f.Pos(), "counter %s.%s is declared but never updated", named.Obj().Name(), f.Name())
			}
		}
	}
}

func isCounterType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}

// statWriteUnits applies the guarded-write rule to a function and its
// nested literals. Literal classification: a goroutine body is its own
// concurrent unit (checked); any other literal runs under its call
// site's locking contract (waived).
func statWriteUnits(pass *Pass, fd *ast.FuncDecl) {
	goBodies := make(map[*ast.FuncLit]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if fl, ok := g.Call.Fun.(*ast.FuncLit); ok {
				goBodies[fl] = true
			}
		}
		return true
	})
	type unit struct {
		body   *ast.BlockStmt
		waived bool
	}
	units := []unit{{fd.Body, strings.HasSuffix(fd.Name.Name, "Locked")}}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			units = append(units, unit{fl.Body, !goBodies[fl]})
		}
		return true
	})
	for _, un := range units {
		if un.waived {
			continue
		}
		scanStatWrites(pass, un.body)
	}
}

func scanStatWrites(pass *Pass, body *ast.BlockStmt) {
	var held map[ast.Stmt]bool // computed on first candidate
	check := func(e ast.Expr, stmt ast.Stmt) {
		if !isGuardedStatsWrite(pass, e) {
			return
		}
		if localValueChain(pass.Pkg.Info, e) {
			return // a private value copy; racing is impossible
		}
		if held == nil {
			held = heldStmts(pass.Universe, pass.Pkg, body)
		}
		if held[stmt] {
			return
		}
		pass.Reportf(stmt.Pos(), "write to %s outside the owning lock (hold the mutex or use sync/atomic)",
			writeTarget(pass, e))
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // classified separately by statWriteUnits
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				check(lhs, n)
			}
		case *ast.IncDecStmt:
			check(n.X, n)
		}
		return true
	})
}

// isGuardedStatsWrite reports whether e (a write target) is a field of
// a guarded stats struct, or a whole guarded stats struct.
func isGuardedStatsWrite(pass *Pass, e ast.Expr) bool {
	u := pass.Universe
	e = ast.Unparen(e)
	if star, ok := e.(*ast.StarExpr); ok {
		e = ast.Unparen(star.X)
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if s, ok := pass.Pkg.Info.Selections[sel]; ok {
			if v, ok := s.Obj().(*types.Var); ok {
				if owner, isStats := u.statsFieldOwner[v]; isStats && u.guardedStat[owner] {
					return true
				}
			}
		}
	}
	if named := derefNamed(pass.Pkg.Info.TypeOf(e)); named != nil && u.isStatsNamed(named) && u.guardedStat[named] {
		return true
	}
	return false
}

func writeTarget(pass *Pass, e ast.Expr) string {
	e = ast.Unparen(e)
	if star, ok := e.(*ast.StarExpr); ok {
		e = ast.Unparen(star.X)
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if s, ok := pass.Pkg.Info.Selections[sel]; ok {
			if v, ok := s.Obj().(*types.Var); ok {
				if owner, isStats := pass.Universe.statsFieldOwner[v]; isStats {
					return owner.Obj().Name() + "." + v.Name()
				}
			}
		}
		return sel.Sel.Name
	}
	if named := derefNamed(pass.Pkg.Info.TypeOf(e)); named != nil {
		return named.Obj().Name()
	}
	return "stats"
}

// localValueChain reports whether e is a pure selector chain rooted at
// a function-local value (no pointer, slice, or map step): writes to
// such a chain touch a private copy, never shared state.
func localValueChain(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	for {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			break
		}
		if t := info.TypeOf(sel.X); t != nil {
			if _, ptr := t.Underlying().(*types.Pointer); ptr {
				return false
			}
		}
		e = ast.Unparen(sel.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	if _, ptr := v.Type().Underlying().(*types.Pointer); ptr {
		return false
	}
	// Package-level variables are shared; everything else (locals,
	// value parameters, value receivers) is a private copy.
	return v.Pkg() == nil || v.Parent() != v.Pkg().Scope()
}

// snapshotCheck enforces by-value snapshots: in a method returning a
// stats struct by value, no receiver-rooted map or slice may escape
// into an assignment, a composite literal, or a return value, and no
// receiver-rooted struct containing reference fields may be returned
// whole.
func snapshotCheck(pass *Pass, fd *ast.FuncDecl) {
	u := pass.Universe
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return
	}
	fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	sig := fn.Type().(*types.Signature)
	returnsStats := false
	for i := 0; i < sig.Results().Len(); i++ {
		if named, ok := sig.Results().At(i).Type().(*types.Named); ok && u.isStatsNamed(named) {
			returnsStats = true
		}
	}
	if !returnsStats {
		return
	}
	// The receiver object seen by body identifiers is the one defined by
	// the receiver declaration (Signature.Recv is a distinct variable).
	var recv types.Object
	if len(fd.Recv.List[0].Names) > 0 {
		recv = pass.Pkg.Info.Defs[fd.Recv.List[0].Names[0]]
	}
	if recv == nil {
		return // unnamed receiver: nothing can be rooted at it
	}
	flag := func(e ast.Expr) {
		e = ast.Unparen(e)
		if !receiverRooted(pass.Pkg.Info, e, recv) {
			return
		}
		t := pass.Pkg.Info.TypeOf(e)
		if t == nil {
			return
		}
		switch t.Underlying().(type) {
		case *types.Map, *types.Slice:
			pass.Reportf(e.Pos(), "stats snapshot aliases receiver state (%s escapes the lock); copy it instead", types.TypeString(t, types.RelativeTo(pass.Pkg.Types)))
		default:
			if named := derefNamed(t); named != nil && u.isStatsNamed(named) && typeHasRefFields(named, nil) {
				pass.Reportf(e.Pos(), "stats snapshot returns receiver-aliased %s, whose map/slice fields escape the lock; copy them instead", named.Obj().Name())
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				flag(r)
			}
		case *ast.AssignStmt:
			for _, r := range n.Rhs {
				flag(r)
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					flag(kv.Value)
				} else {
					flag(elt)
				}
			}
		}
		return true
	})
}

// receiverRooted reports whether e is a pure selector chain (possibly
// through pointers and a final dereference) rooted at the method's
// receiver.
func receiverRooted(info *types.Info, e ast.Expr, recv types.Object) bool {
	e = ast.Unparen(e)
	if star, ok := e.(*ast.StarExpr); ok {
		e = ast.Unparen(star.X)
	}
	for {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			break
		}
		e = ast.Unparen(sel.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	return obj != nil && obj == recv
}

// typeHasRefFields reports whether the struct behind named carries any
// map or slice field, directly or through nested structs.
func typeHasRefFields(named *types.Named, visited map[*types.Named]bool) bool {
	if visited == nil {
		visited = make(map[*types.Named]bool)
	}
	if visited[named] {
		return false
	}
	visited[named] = true
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		switch t := st.Field(i).Type(); t.Underlying().(type) {
		case *types.Map, *types.Slice:
			return true
		default:
			if n := derefNamed(t); n != nil && typeHasRefFields(n, visited) {
				return true
			}
		}
	}
	return false
}
