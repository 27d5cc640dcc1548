package plan

import (
	"sort"
	"strings"

	"repro/internal/expr"
	"repro/internal/vector"
)

// This file is the normalization stage of the query pipeline: the pass
// that runs between Optimize and Fingerprint so that semantically
// equivalent query spellings converge on one canonical plan. Two layers
// do the work:
//
//   - Normalize rewrites the executed plan itself in semantics-preserving
//     ways: constant subexpressions fold, and the conjuncts of every
//     selection (and of every fused σ∘mount / σ∘cache-scan predicate) are
//     re-ordered into a canonical commutative order. AND evaluates both
//     sides over the whole batch, so conjunct order never changes results
//     or error behavior.
//   - CanonicalString renders a plan into an alias-insensitive canonical
//     form without touching it: table bindings are replaced by canonical
//     names, commutative join chains are flattened and sorted, comparison
//     directions are normalized. Fingerprint hashes this rendering.

// Normalize applies the semantics-preserving normalization rewrites to a
// bound plan and re-resolves it: constant folding everywhere expressions
// appear, plus canonical conjunct ordering in selections and fused scan
// predicates. The returned plan computes exactly the same result as the
// input on every operator.
func Normalize(root Node) (Node, error) {
	out := Transform(root, func(n Node) Node {
		switch t := n.(type) {
		case *Select:
			return &Select{Pred: normalizePred(t.Pred), Child: t.Child}
		case *Project:
			exprs := make([]expr.Expr, len(t.Exprs))
			for i, e := range t.Exprs {
				exprs[i] = FoldConstants(e)
			}
			return &Project{Exprs: exprs, Names: t.Names, Child: t.Child}
		case *Aggregate:
			aggs := make([]AggSpec, len(t.Aggs))
			for i, a := range t.Aggs {
				aggs[i] = a
				if a.Arg != nil {
					aggs[i].Arg = FoldConstants(a.Arg)
				}
			}
			return &Aggregate{GroupBy: t.GroupBy, Aggs: aggs, Child: t.Child}
		case *Mount:
			if t.Pred == nil {
				return n
			}
			return &Mount{URI: t.URI, Adapter: t.Adapter, Binding: t.Binding, Def: t.Def,
				Pred: normalizePred(t.Pred), EstBytes: t.EstBytes}
		case *CacheScan:
			if t.Pred == nil {
				return n
			}
			return &CacheScan{URI: t.URI, Adapter: t.Adapter, Binding: t.Binding, Def: t.Def,
				Pred: normalizePred(t.Pred), EstBytes: t.EstBytes}
		default:
			return n
		}
	})
	return Resolve(out)
}

// normalizePred folds constants, drops range conjuncts made redundant by
// tighter ones on the same column, and re-orders the survivors
// canonically (by their alias-sensitive canonical rendering — stable for
// one plan, which is all execution needs).
func normalizePred(pred expr.Expr) expr.Expr {
	folded := FoldConstants(pred)
	conjuncts := expr.SplitAnd(folded)
	if len(conjuncts) <= 1 {
		return folded
	}
	conjuncts = foldRangeConjuncts(conjuncts)
	if len(conjuncts) == 1 {
		return conjuncts[0]
	}
	sort.SliceStable(conjuncts, func(i, j int) bool {
		return canonExpr(conjuncts[i], nil) < canonExpr(conjuncts[j], nil)
	})
	return expr.JoinAnd(conjuncts)
}

// rangeAcc accumulates one column's interval conjuncts: the tightest
// lower and upper bound seen, each remembering which source conjunct
// supplied it (the survivor that gets emitted).
type rangeAcc struct {
	col  *expr.Col
	iv   Interval
	loC  expr.Expr // conjunct that supplied iv's lo bound
	hiC  expr.Expr
	keep []expr.Expr // originals, emitted verbatim when folding aborts
	bad  bool        // an incomparable merge poisoned this column
}

// foldRangeConjuncts drops range conjuncts made redundant by a tighter
// bound on the same column (`a>5 AND a>3` → `a>5`) and collapses
// contradictory ranges (`a>5 AND a<3`) to constant false. Only the
// interval shape with executor-comparable kinds participates — exactly
// the conjuncts whose evaluation cannot error, so dropping one (or
// replacing a set with FALSE) preserves error behavior as well as
// semantics. Anything else, and any column whose bounds fail to merge,
// passes through untouched. AND evaluates both sides batch-wide, so
// dropping a conjunct never changes results beyond doing less work.
func foldRangeConjuncts(conjuncts []expr.Expr) []expr.Expr {
	var order []string // first-seen column order, for deterministic output
	accs := make(map[string]*rangeAcc)
	var rest []expr.Expr
	for _, c := range conjuncts {
		ic, ok := asIntervalConjunct(c)
		if !ok {
			rest = append(rest, c)
			continue
		}
		key := canonExpr(ic.col, nil)
		acc := accs[key]
		if acc == nil {
			acc = &rangeAcc{col: ic.col}
			accs[key] = acc
			order = append(order, key)
		}
		acc.keep = append(acc.keep, c)
		if acc.bad {
			continue
		}
		b := ic.bounds()
		// Track which source conjunct owns each bound after the merge, so
		// the emitted survivor is an original conjunct, not a rewrite.
		prev := acc.iv
		if !acc.iv.intersect(b) {
			acc.bad = true
			continue
		}
		if b.HasLo && (acc.iv.Lo != prev.Lo || acc.iv.LoOpen != prev.LoOpen || !prev.HasLo) &&
			acc.iv.Lo == b.Lo && acc.iv.LoOpen == b.LoOpen {
			acc.loC = c
		}
		if b.HasHi && (acc.iv.Hi != prev.Hi || acc.iv.HiOpen != prev.HiOpen || !prev.HasHi) &&
			acc.iv.Hi == b.Hi && acc.iv.HiOpen == b.HiOpen {
			acc.hiC = c
		}
	}
	out := rest
	for _, key := range order {
		acc := accs[key]
		if acc.bad || len(acc.keep) == 1 {
			out = append(out, acc.keep...)
			continue
		}
		// Contradictory range → constant false for this column's conjuncts.
		if acc.iv.HasLo && acc.iv.HasHi {
			cmp, ok := compareConsts(acc.iv.Lo, acc.iv.Hi)
			if !ok {
				out = append(out, acc.keep...)
				continue
			}
			if cmp > 0 || cmp == 0 && (acc.iv.LoOpen || acc.iv.HiOpen) {
				out = append(out, &expr.Const{Val: vector.Bool(false)})
				continue
			}
		}
		if acc.loC != nil {
			out = append(out, acc.loC)
		}
		if acc.hiC != nil && acc.hiC != acc.loC {
			out = append(out, acc.hiC)
		}
	}
	if len(out) == 0 {
		// Every conjunct folded away (cannot happen today — interval
		// conjuncts always leave a survivor — but keep JoinAnd's nil out).
		return conjuncts
	}
	return out
}

// FoldConstants evaluates constant subexpressions at plan time. Folding
// is conservative: an operation folds only when every operand is a
// constant and the operation cannot fail (no division by zero, no
// incomparable kinds), so runtime error behavior is preserved exactly.
func FoldConstants(e expr.Expr) expr.Expr {
	switch t := e.(type) {
	case *expr.Col, *expr.Const:
		return e
	case *expr.Not:
		inner := FoldConstants(t.E)
		if c, ok := inner.(*expr.Const); ok && c.Val.Kind == vector.KindBool {
			return &expr.Const{Val: vector.Bool(!c.Val.B)}
		}
		return &expr.Not{E: inner}
	case *expr.Logic:
		l, r := FoldConstants(t.L), FoldConstants(t.R)
		lc, lok := constBool(l)
		rc, rok := constBool(r)
		if lok && rok {
			if t.Op == expr.OpAnd {
				return &expr.Const{Val: vector.Bool(lc && rc)}
			}
			return &expr.Const{Val: vector.Bool(lc || rc)}
		}
		// Identity operands drop without changing semantics (the other
		// side is still evaluated either way).
		if lok && ((t.Op == expr.OpAnd && lc) || (t.Op == expr.OpOr && !lc)) {
			return r
		}
		if rok && ((t.Op == expr.OpAnd && rc) || (t.Op == expr.OpOr && !rc)) {
			return l
		}
		return &expr.Logic{Op: t.Op, L: l, R: r}
	case *expr.Compare:
		l, r := FoldConstants(t.L), FoldConstants(t.R)
		if lc, ok := l.(*expr.Const); ok {
			if rc, ok := r.(*expr.Const); ok {
				if cmp, ok := compareConsts(lc.Val, rc.Val); ok {
					return &expr.Const{Val: vector.Bool(cmpHolds(t.Op, cmp))}
				}
			}
		}
		return &expr.Compare{Op: t.Op, L: l, R: r}
	case *expr.Arith:
		l, r := FoldConstants(t.L), FoldConstants(t.R)
		if lc, ok := l.(*expr.Const); ok {
			if rc, ok := r.(*expr.Const); ok {
				if v, ok := foldArith(t.Op, lc.Val, rc.Val); ok {
					return &expr.Const{Val: v}
				}
			}
		}
		return &expr.Arith{Op: t.Op, L: l, R: r}
	default:
		return e
	}
}

func constBool(e expr.Expr) (bool, bool) {
	c, ok := e.(*expr.Const)
	if !ok || c.Val.Kind != vector.KindBool {
		return false, false
	}
	return c.Val.B, true
}

// intish reports the kinds compared and computed as int64.
func intish(k vector.Kind) bool { return k == vector.KindInt64 || k == vector.KindTime }

// isNaN reports a float NaN: the one numeric value comparisons do not order.
func isNaN(v vector.Value) bool { return v.Kind == vector.KindFloat64 && v.F != v.F }

// compareConsts orders two constant values when their kinds are
// comparable, mirroring the executor's comparison semantics.
func compareConsts(a, b vector.Value) (int, bool) {
	numeric := func(k vector.Kind) bool { return intish(k) || k == vector.KindFloat64 }
	switch {
	case numeric(a.Kind) && numeric(b.Kind):
		if intish(a.Kind) && intish(b.Kind) {
			switch {
			case a.I < b.I:
				return -1, true
			case a.I > b.I:
				return 1, true
			}
			return 0, true
		}
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		}
		return 0, true
	case a.Kind == vector.KindString && b.Kind == vector.KindString:
		return strings.Compare(a.S, b.S), true
	case a.Kind == vector.KindBool && b.Kind == vector.KindBool:
		switch {
		case a.B == b.B:
			return 0, true
		case !a.B:
			return -1, true
		}
		return 1, true
	}
	return 0, false
}

func cmpHolds(op expr.CmpOp, cmp int) bool {
	switch op {
	case expr.Eq:
		return cmp == 0
	case expr.Ne:
		return cmp != 0
	case expr.Lt:
		return cmp < 0
	case expr.Le:
		return cmp <= 0
	case expr.Gt:
		return cmp > 0
	}
	return cmp >= 0
}

// foldArith evaluates constant arithmetic with the executor's promotion
// rules: all-integer (or time) operands use int64 arithmetic with
// truncating division, a float operand promotes to float64. Division by
// zero never folds — the error stays a runtime error.
func foldArith(op expr.ArithOp, a, b vector.Value) (vector.Value, bool) {
	if !a.IsNumeric() || !b.IsNumeric() {
		return vector.Value{}, false
	}
	if intish(a.Kind) && intish(b.Kind) {
		switch op {
		case expr.Add:
			return vector.Int64(a.I + b.I), true
		case expr.Sub:
			return vector.Int64(a.I - b.I), true
		case expr.Mul:
			return vector.Int64(a.I * b.I), true
		default:
			if b.I == 0 {
				return vector.Value{}, false
			}
			return vector.Int64(a.I / b.I), true
		}
	}
	af, bf := a.AsFloat(), b.AsFloat()
	switch op {
	case expr.Add:
		return vector.Float64(af + bf), true
	case expr.Sub:
		return vector.Float64(af - bf), true
	case expr.Mul:
		return vector.Float64(af * bf), true
	default:
		if bf == 0 {
			return vector.Value{}, false
		}
		return vector.Float64(af / bf), true
	}
}
