package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ReleaseCheck proves, lostcancel-style, that every successful
// admission acquisition is paired with exactly one release on every
// path out of the acquiring function:
//
//   - admission.Gate.Acquire(ctx, session, n) — on success the session
//     holds n bytes; the pairing Release(session, n) must run on every
//     continuation, or be registered in a defer. The gate panics on a
//     double release, so a lost one is pure budget leakage: the gate
//     over-admits forever after.
//   - cache.Manager.BeginPut(uri, span, col) — the returned Pending
//     holds a reservation against double-inserts; every path must Commit
//     or Abort it, or later fills of the URI are refused forever.
//
// The analysis is intraprocedural with explicit escape hatches, like
// x/tools' lostcancel: an acquisition whose handle escapes the
// function (returned, captured by a closure, passed along, aliased or
// stored in a field) transfers the obligation to the escapee and is
// not flagged; a guard of the form `if err != nil { ... }` on the
// Acquire error is understood as the failure path, where nothing is
// held. Cross-function pairings the analysis cannot see (e.g. a
// struct-recorded admission released by a teardown elsewhere) are
// annotated //lint:allow releasecheck <reason> at the call site.
var ReleaseCheck = &Analyzer{
	Name: "releasecheck",
	Doc:  "flags admission.Acquire/cache.BeginPut without a Release/Commit/Abort on every path",
	Run:  runReleaseCheck,
}

const (
	admissionPkgSuffix = "internal/admission"
	cachePkgSuffix     = "internal/cache"
)

type acquireKind int

const (
	acqGate    acquireKind = iota // Gate.Acquire: release via Gate.Release
	acqPending                    // Manager.BeginPut: release via Pending.Commit/Abort
)

func (k acquireKind) String() string {
	if k == acqGate {
		return "admission.Acquire"
	}
	return "cache.BeginPut"
}

func runReleaseCheck(pass *Pass) {
	if pkgPathHasSuffix(pass.Pkg.Types, admissionPkgSuffix) ||
		pkgPathHasSuffix(pass.Pkg.Types, cachePkgSuffix) {
		return // the defining packages manage their own accounting
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkReleaseFunc(pass, n.Body)
				}
				return false
			}
			return true
		})
	}
}

// checkReleaseFunc analyzes one function body and, separately, each
// function literal nested in it (a closure that acquires is its own
// analysis unit; the enclosing function's statements never run
// "after" the closure's).
func checkReleaseFunc(pass *Pass, body *ast.BlockStmt) {
	var nested []*ast.BlockStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			nested = append(nested, fl.Body)
			return false
		}
		return true
	})
	for _, acq := range findAcquires(pass, body) {
		(&releaseScan{pass: pass, acq: acq}).check(body)
	}
	for _, nb := range nested {
		checkReleaseFunc(pass, nb)
	}
}

// acquire is one tracked acquisition site.
type acquire struct {
	kind   acquireKind
	call   *ast.CallExpr
	errObj types.Object // Acquire's error variable, when bound
	handle types.Object // BeginPut's Pending variable, when bound
}

// findAcquires locates tracked calls directly in body (not in nested
// function literals).
func findAcquires(pass *Pass, body *ast.BlockStmt) []*acquire {
	var out []*acquire
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeOf(pass.Pkg.Info, call)
		switch {
		case methodOn(obj, admissionPkgSuffix, "Gate", "Acquire"):
			out = append(out, &acquire{kind: acqGate, call: call})
		case methodOn(obj, cachePkgSuffix, "Manager", "BeginPut"):
			out = append(out, &acquire{kind: acqPending, call: call})
		}
		return true
	})
	return out
}

// relState is the abstract state along one path after the acquisition.
type relState struct {
	released bool // a pairing release ran on this path
	deferred bool // a defer holding the release is registered
}

func (st relState) ok() bool { return st.released || st.deferred }

type releaseScan struct {
	pass     *Pass
	acq      *acquire
	reported bool
}

// check binds the acquisition's variables, applies the escape hatches,
// and walks every continuation from the acquiring statement to the
// function's exits.
func (s *releaseScan) check(body *ast.BlockStmt) {
	// Escape: `return g.Acquire(...)` is the wrapper form; the caller
	// owns the release.
	if returnsCall(body, s.acq.call) {
		return
	}
	s.bindVars(body)
	if s.acq.kind == acqPending {
		if s.handleDiscarded(body) {
			s.pass.Reportf(s.acq.call.Pos(), "result of cache.BeginPut is discarded; it must be Commit()ed or Abort()ed")
			return
		}
		if s.acq.handle != nil && s.handleEscapes(body) {
			return // obligation transferred to the escapee
		}
	}
	chains, ok := remainders(body.List, s.acq.call)
	if !ok {
		return
	}
	st := relState{}
	terminated := false
	for _, list := range chains {
		st, terminated = s.scanList(list, st)
		if terminated {
			break
		}
	}
	if !terminated {
		s.exitCheck(st, body.End())
	}
}

// bindVars resolves the `err := g.Acquire(...)` / `p := m.BeginPut(...)`
// binding forms, including the if-init form.
func (s *releaseScan) bindVars(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || ast.Unparen(as.Rhs[0]) != s.acq.call {
			return true
		}
		id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
		if !ok || id.Name == "_" {
			return false
		}
		obj := s.pass.Pkg.Info.Defs[id]
		if obj == nil {
			obj = s.pass.Pkg.Info.Uses[id]
		}
		if s.acq.kind == acqGate {
			s.acq.errObj = obj
		} else {
			s.acq.handle = obj
		}
		return false
	})
}

// handleDiscarded reports a BeginPut whose handle is dropped on the
// floor (expression statement or blank assignment).
func (s *releaseScan) handleDiscarded(body *ast.BlockStmt) bool {
	discarded := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if ast.Unparen(n.X) == s.acq.call {
				discarded = true
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 || ast.Unparen(n.Rhs[0]) != s.acq.call || len(n.Lhs) == 0 {
				return true
			}
			if id, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident); ok && id.Name == "_" {
				discarded = true
			}
		}
		return true
	})
	return discarded
}

// handleEscapes reports whether the Pending handle leaves the
// function's sight: captured by a closure, passed as an argument,
// returned, aliased to another variable, or stored into a field or
// composite literal.
func (s *releaseScan) handleEscapes(body *ast.BlockStmt) bool {
	uses := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(nn ast.Node) bool {
			if id, ok := nn.(*ast.Ident); ok && s.pass.Pkg.Info.Uses[id] == s.acq.handle {
				found = true
			}
			return true
		})
		return found
	}
	escaped := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if uses(n) {
				escaped = true
			}
			return false
		case *ast.CallExpr:
			for _, a := range n.Args {
				if id, ok := ast.Unparen(a).(*ast.Ident); ok && s.pass.Pkg.Info.Uses[id] == s.acq.handle {
					escaped = true
				}
			}
		case *ast.ReturnStmt:
			if uses(n) {
				escaped = true
			}
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				if id, ok := ast.Unparen(rhs).(*ast.Ident); ok && s.pass.Pkg.Info.Uses[id] == s.acq.handle {
					escaped = true
				}
			}
		case *ast.KeyValueExpr:
			if id, ok := ast.Unparen(n.Value).(*ast.Ident); ok && s.pass.Pkg.Info.Uses[id] == s.acq.handle {
				escaped = true
			}
		}
		return true
	})
	return escaped
}

// remainders returns the statement lists that execute after the
// statement containing the call completes, innermost first. A call in
// an if-statement's init positions the continuation after the whole
// if, which is exactly the `if err := Acquire(); err != nil` idiom's
// success path.
func remainders(stmts []ast.Stmt, call *ast.CallExpr) ([][]ast.Stmt, bool) {
	for i, st := range stmts {
		if !nodeContains(st, call) {
			continue
		}
		for _, child := range childLists(st) {
			if listContains(child, call) {
				rem, ok := remainders(child, call)
				if !ok {
					return nil, false
				}
				return append(rem, stmts[i+1:]), true
			}
		}
		return [][]ast.Stmt{stmts[i+1:]}, true
	}
	return nil, false
}

func nodeContains(n ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(n, func(nn ast.Node) bool {
		if nn == target {
			found = true
		}
		return !found
	})
	return found
}

func listContains(stmts []ast.Stmt, target ast.Node) bool {
	for _, st := range stmts {
		if nodeContains(st, target) {
			return true
		}
	}
	return false
}

// childLists enumerates the nested statement lists of one statement.
func childLists(st ast.Stmt) [][]ast.Stmt {
	switch st := st.(type) {
	case *ast.BlockStmt:
		return [][]ast.Stmt{st.List}
	case *ast.IfStmt:
		out := [][]ast.Stmt{st.Body.List}
		if st.Else != nil {
			out = append(out, []ast.Stmt{st.Else})
		}
		return out
	case *ast.ForStmt:
		return [][]ast.Stmt{st.Body.List}
	case *ast.RangeStmt:
		return [][]ast.Stmt{st.Body.List}
	case *ast.SwitchStmt:
		return clauseLists(st.Body)
	case *ast.TypeSwitchStmt:
		return clauseLists(st.Body)
	case *ast.SelectStmt:
		return clauseLists(st.Body)
	case *ast.LabeledStmt:
		return childLists(st.Stmt)
	}
	return nil
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause: // switch / type switch
			if c.List == nil {
				return true
			}
		case *ast.CommClause: // select
			if c.Comm == nil {
				return true
			}
		}
	}
	return false
}

func clauseLists(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			out = append(out, c.Body)
		case *ast.CommClause:
			out = append(out, c.Body)
		}
	}
	return out
}

// scanList walks one statement list, threading the release state, and
// reports exits (returns, panics, end of function) reached while the
// acquisition may still be held.
func (s *releaseScan) scanList(stmts []ast.Stmt, st relState) (relState, bool) {
	for _, stmt := range stmts {
		var terminated bool
		st, terminated = s.scanStmt(stmt, st)
		if terminated {
			return st, true
		}
	}
	return st, false
}

func (s *releaseScan) scanStmt(stmt ast.Stmt, st relState) (relState, bool) {
	switch stmt := stmt.(type) {
	case *ast.ReturnStmt:
		s.exitCheck(st, stmt.Pos())
		return st, true
	case *ast.BranchStmt:
		// break/continue/goto leave this list; the loop re-entry is not
		// modeled (conservatively treated as a non-exit).
		return st, true
	case *ast.DeferStmt:
		if spawnedCallReleases(s, stmt.Call) {
			st.deferred = true
		}
		return st, false
	case *ast.GoStmt:
		// A release delegated to a goroutine is out of order-of-execution
		// scope; accept it rather than second-guess the handoff.
		if spawnedCallReleases(s, stmt.Call) {
			st.released = true
		}
		return st, false
	case *ast.IfStmt:
		return s.scanIf(stmt, st)
	case *ast.BlockStmt:
		return s.scanList(stmt.List, st)
	case *ast.LabeledStmt:
		return s.scanStmt(stmt.Stmt, st)
	case *ast.ForStmt:
		bodySt, _ := s.scanList(stmt.Body.List, st)
		return join(st, bodySt), false
	case *ast.RangeStmt:
		bodySt, _ := s.scanList(stmt.Body.List, st)
		return join(st, bodySt), false
	case *ast.SwitchStmt:
		return s.scanClauses(stmt.Body, hasDefaultClause(stmt.Body), st)
	case *ast.TypeSwitchStmt:
		return s.scanClauses(stmt.Body, hasDefaultClause(stmt.Body), st)
	case *ast.SelectStmt:
		return s.scanClauses(stmt.Body, true, st)
	case *ast.ExprStmt:
		if isPanicCall(stmt.X) {
			// A panic exits the function with only defers running.
			if !st.deferred && !st.released {
				s.reportExit(stmt.Pos(), "panics")
			}
			return st, true
		}
		if nodeReleases(s, stmt) {
			st.released = true
		}
		return st, false
	default:
		if nodeReleases(s, stmt) {
			st.released = true
		}
		return st, false
	}
}

// scanIf understands the error-guard idiom on the acquisition's error:
// the `err != nil` branch is the failure path, where nothing is held.
func (s *releaseScan) scanIf(stmt *ast.IfStmt, st relState) (relState, bool) {
	if s.acq.kind == acqGate {
		switch guardKind(s, stmt.Cond) {
		case guardFailure: // if err != nil { ... }: skip the failure body
			if stmt.Else != nil {
				return s.scanStmt(stmt.Else, st)
			}
			return st, false
		case guardSuccess: // if err == nil { ... }: the success path is the body
			s.scanList(stmt.Body.List, st)
			// Whatever follows the if runs only on the failure path (or
			// after a released success body); the obligation is settled.
			st.released = true
			return st, false
		}
	}
	bodySt, bodyTerm := s.scanList(stmt.Body.List, st)
	elseSt, elseTerm := st, false
	if stmt.Else != nil {
		elseSt, elseTerm = s.scanStmt(stmt.Else, st)
	}
	switch {
	case bodyTerm && elseTerm:
		return st, true
	case bodyTerm:
		return elseSt, false
	case elseTerm:
		return bodySt, false
	default:
		return join(bodySt, elseSt), false
	}
}

func (s *releaseScan) scanClauses(body *ast.BlockStmt, exhaustive bool, st relState) (relState, bool) {
	merged := relState{released: true, deferred: true}
	allTerm := true
	any := false
	for _, list := range clauseLists(body) {
		any = true
		cSt, cTerm := s.scanList(list, st)
		if !cTerm {
			allTerm = false
			merged = join(merged, cSt)
		}
	}
	if !any {
		return st, false
	}
	if allTerm && exhaustive {
		return st, true
	}
	if !exhaustive {
		merged = join(merged, st)
	}
	return merged, false
}

func join(a, b relState) relState {
	return relState{released: a.released && b.released, deferred: a.deferred && b.deferred}
}

// guard classification for `if <cond>` over the acquisition error.
type guard int

const (
	guardNone guard = iota
	guardFailure
	guardSuccess
)

func guardKind(s *releaseScan, cond ast.Expr) guard {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return guardNone
	}
	matches := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if e == s.acq.call {
			return true
		}
		id, ok := e.(*ast.Ident)
		return ok && s.acq.errObj != nil && s.pass.Pkg.Info.Uses[id] == s.acq.errObj
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	var hit bool
	switch {
	case matches(be.X) && isNil(be.Y), matches(be.Y) && isNil(be.X):
		hit = true
	}
	if !hit {
		return guardNone
	}
	switch be.Op {
	case token.NEQ:
		return guardFailure
	case token.EQL:
		return guardSuccess
	}
	return guardNone
}

// callReleases reports whether the call itself is the pairing release.
func callReleases(s *releaseScan, call *ast.CallExpr) bool {
	obj := calleeOf(s.pass.Pkg.Info, call)
	if s.acq.kind == acqGate {
		return methodOn(obj, admissionPkgSuffix, "Gate", "Release")
	}
	return methodOn(obj, cachePkgSuffix, "Pending", "Commit") ||
		methodOn(obj, cachePkgSuffix, "Pending", "Abort")
}

// spawnedCallReleases reports whether a deferred or go'd call performs
// the pairing release: the call itself, or anywhere in the body of the
// function literal it invokes.
func spawnedCallReleases(s *releaseScan, call *ast.CallExpr) bool {
	if callReleases(s, call) {
		return true
	}
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		found := false
		ast.Inspect(fl.Body, func(nn ast.Node) bool {
			if c, ok := nn.(*ast.CallExpr); ok && callReleases(s, c) {
				found = true
			}
			return !found
		})
		return found
	}
	return false
}

// nodeReleases reports whether a pairing release happens anywhere in
// the node, excluding nested function literals (those run at their
// call sites, which scanStmt models separately for defer/go).
func nodeReleases(s *releaseScan, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(nn ast.Node) bool {
		if _, ok := nn.(*ast.FuncLit); ok {
			return false
		}
		if c, ok := nn.(*ast.CallExpr); ok && callReleases(s, c) {
			found = true
		}
		return !found
	})
	return found
}

func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// returnsCall reports the wrapper form `return g.Acquire(...)`.
func returnsCall(body *ast.BlockStmt, call *ast.CallExpr) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, r := range ret.Results {
				if ast.Unparen(r) == call {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

func (s *releaseScan) exitCheck(st relState, at token.Pos) {
	if !st.ok() {
		s.reportExit(at, "returns")
	}
}

func (s *releaseScan) reportExit(at token.Pos, how string) {
	if s.reported {
		return
	}
	s.reported = true
	exit := s.pass.Universe.Fset.Position(at)
	s.pass.Reportf(s.acq.call.Pos(),
		"%s is not released on every path: the function %s at line %d without %s",
		s.acq.kind, how, exit.Line, s.releaseName())
}

func (s *releaseScan) releaseName() string {
	if s.acq.kind == acqGate {
		return "Release (or a defer holding it)"
	}
	return "Commit or Abort (or a defer holding it)"
}
