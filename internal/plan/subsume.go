package plan

// This file is the containment checker behind the engine's semantic
// result cache: when no stored result has the exact canonical
// fingerprint of a query, a *wider* stored result whose predicate is
// implied by the query's can still answer it — the cached rows are a
// superset of the wanted rows, and re-filtering them in memory is the
// classic semantic-caching move. Three pieces cooperate:
//
//   - Interval decomposition: the canonical conjunct form from the
//     fingerprint layer is split, per plan, into per-column [lo, hi]
//     intervals (from conjuncts of the shape `col CMP constant`) plus
//     residual conjuncts that stay opaque.
//   - SubsumptionKey: a canonical plan rendering with every
//     interval-eligible conjunct over a *re-filterable* output column
//     elided. Structurally identical plans that differ only in those
//     filter constants share one key — the result cache's secondary
//     index bucket. Residual conjuncts render verbatim, so anything the
//     checker cannot re-apply must match exactly.
//   - Subsumes: per-column interval containment between two summaries in
//     the same bucket, using the same constant comparison the executor
//     applies. Everything non-interval already matched via the key.
//
// Soundness is bought with conservatism; the bail-outs are:
//
//   - Row-collapsing plans (Aggregate, Limit anywhere) are ineligible:
//     re-filtering a final aggregate or a truncated prefix does not
//     commute with the collapsed rows. (Sort is fine — the operator is
//     stable, so filtering commutes with it.)
//   - A column is re-filterable only when it reaches the plan's output
//     as a pure column passthrough (a bare *expr.Col projection), with
//     an unambiguous canonical name: only then can the narrow query's
//     bound be re-applied to the wider final result.
//   - Interval conjuncts qualify only for comparison ops the executor
//     evaluates without error against the column's kind (numeric with
//     numeric, string with string); Ne, booleans, NaN bounds and
//     anything structurally richer stay residual.
//   - Any incomparable bound merge removes the column from eligibility
//     for this plan, which changes its key: bail to no-match, never to a
//     wrong match.

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"

	"repro/internal/expr"
	"repro/internal/vector"
)

// Interval is the per-column bound summary of a predicate's interval
// conjuncts: the values in the column satisfying every one of them. An
// absent bound side is unbounded; the zero Interval is (-inf, +inf).
type Interval struct {
	HasLo, HasHi   bool
	Lo, Hi         vector.Value
	LoOpen, HiOpen bool // open = strict (>/<), closed = >= / <=
}

// contains reports whether every value admitted by n is admitted by iv,
// conservatively: incomparable bound kinds report false.
func (iv Interval) contains(n Interval) bool {
	if iv.HasLo {
		if !n.HasLo {
			return false
		}
		cmp, ok := compareConsts(iv.Lo, n.Lo)
		if !ok || cmp > 0 {
			return false
		}
		// Equal bounds: an open (strict) wider bound excludes the value a
		// closed narrower bound admits.
		if cmp == 0 && iv.LoOpen && !n.LoOpen {
			return false
		}
	}
	if iv.HasHi {
		if !n.HasHi {
			return false
		}
		cmp, ok := compareConsts(iv.Hi, n.Hi)
		if !ok || cmp < 0 {
			return false
		}
		if cmp == 0 && iv.HiOpen && !n.HiOpen {
			return false
		}
	}
	return true
}

// SubsumptionKey identifies the bucket of plans that are structurally
// identical up to the constants of their re-filterable interval
// conjuncts. The zero key marks an ineligible plan.
type SubsumptionKey [32]byte

// IsZero reports whether the key was never computed (ineligible plan).
func (k SubsumptionKey) IsZero() bool { return k == SubsumptionKey{} }

// String renders the key as hex.
func (k SubsumptionKey) String() string { return hex.EncodeToString(k[:]) }

// SubsumptionInfo is everything the result cache needs to serve a plan
// semantically: the bucket key, the per-column interval summary of its
// re-filterable conjuncts, and a prebuilt re-filter predicate bound to
// the plan's *output* positions — evaluable directly against any cached
// final result in the same bucket (same key ⇒ identical output schema).
type SubsumptionInfo struct {
	Key       SubsumptionKey
	Intervals map[string]Interval // canonical column name → interval
	Refilter  expr.Expr           // nil when no interval conjunct exists
}

// Subsumes reports whether a query summarized by narrower can be
// answered by re-filtering a result summarized by wider: same bucket,
// and every narrower interval contained in the wider one (an absent
// interval is unbounded). Sound and conservative — false on any doubt.
func Subsumes(wider, narrower *SubsumptionInfo) bool {
	if wider == nil || narrower == nil || wider.Key.IsZero() || wider.Key != narrower.Key {
		return false
	}
	for name, w := range wider.Intervals {
		if !w.contains(narrower.Intervals[name]) {
			return false
		}
	}
	// Columns only the narrower query constrains are fine: the wider side
	// is unbounded there and the re-filter applies the narrow bound.
	return true
}

// intervalConjunct is one conjunct of the shape `col CMP constant`
// (either orientation), normalized to the column on the left.
type intervalConjunct struct {
	col *expr.Col
	op  expr.CmpOp
	val vector.Value
}

// asIntervalConjunct matches a conjunct against the interval shape. Ne
// never qualifies (it is not an interval), nor do boolean or
// kind-mismatched comparisons the executor would reject, nor NaN bounds
// (their comparisons are not an order).
func asIntervalConjunct(c expr.Expr) (intervalConjunct, bool) {
	cmp, ok := c.(*expr.Compare)
	if !ok || cmp.Op == expr.Ne {
		return intervalConjunct{}, false
	}
	if col, ok := cmp.L.(*expr.Col); ok {
		if k, ok := cmp.R.(*expr.Const); ok {
			return makeIntervalConjunct(col, cmp.Op, k.Val)
		}
	}
	if k, ok := cmp.L.(*expr.Const); ok {
		if col, ok := cmp.R.(*expr.Col); ok {
			return makeIntervalConjunct(col, flipCmp(cmp.Op), k.Val)
		}
	}
	return intervalConjunct{}, false
}

func makeIntervalConjunct(col *expr.Col, op expr.CmpOp, v vector.Value) (intervalConjunct, bool) {
	if !comparableKinds(col.K, v.Kind) {
		return intervalConjunct{}, false
	}
	if isNaN(v) {
		return intervalConjunct{}, false
	}
	return intervalConjunct{col: col, op: op, val: v}, true
}

// flipCmp mirrors an operator across its operands: c OP col ⇔ col OP' c.
func flipCmp(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.Lt:
		return expr.Gt
	case expr.Le:
		return expr.Ge
	case expr.Gt:
		return expr.Lt
	case expr.Ge:
		return expr.Le
	}
	return op // Eq
}

// comparableKinds reports whether the executor evaluates `col CMP const`
// without error for these kinds: the numeric class (int, time, float)
// inter-compares, strings compare with strings, everything else is out.
// (Booleans are excluded deliberately: a bool "interval" adds nothing.)
func comparableKinds(colK, constK vector.Kind) bool {
	numeric := func(k vector.Kind) bool {
		return k == vector.KindInt64 || k == vector.KindTime || k == vector.KindFloat64
	}
	if numeric(colK) && numeric(constK) {
		return true
	}
	return colK == vector.KindString && constK == vector.KindString
}

// bounds converts the conjunct into its interval contribution.
func (ic intervalConjunct) bounds() Interval {
	switch ic.op {
	case expr.Eq:
		return Interval{HasLo: true, Lo: ic.val, HasHi: true, Hi: ic.val}
	case expr.Lt:
		return Interval{HasHi: true, Hi: ic.val, HiOpen: true}
	case expr.Le:
		return Interval{HasHi: true, Hi: ic.val}
	case expr.Gt:
		return Interval{HasLo: true, Lo: ic.val, LoOpen: true}
	default: // Ge
		return Interval{HasLo: true, Lo: ic.val}
	}
}

// intersect merges another conjunct's bounds into iv, keeping the
// tighter bound per side. It reports false when a bound pair is
// incomparable (the caller drops the column from eligibility).
func (iv *Interval) intersect(other Interval) bool {
	if other.HasLo {
		if !iv.HasLo {
			iv.HasLo, iv.Lo, iv.LoOpen = true, other.Lo, other.LoOpen
		} else {
			cmp, ok := compareConsts(other.Lo, iv.Lo)
			if !ok {
				return false
			}
			if cmp > 0 || cmp == 0 && other.LoOpen && !iv.LoOpen {
				iv.Lo, iv.LoOpen = other.Lo, other.LoOpen
			}
		}
	}
	if other.HasHi {
		if !iv.HasHi {
			iv.HasHi, iv.Hi, iv.HiOpen = true, other.Hi, other.HiOpen
		} else {
			cmp, ok := compareConsts(other.Hi, iv.Hi)
			if !ok {
				return false
			}
			if cmp < 0 || cmp == 0 && other.HiOpen && !iv.HiOpen {
				iv.Hi, iv.HiOpen = other.Hi, other.HiOpen
			}
		}
	}
	return true
}

// refCol is one re-filterable output column: where the passthrough lands
// in the output schema and its kind.
type refCol struct {
	pos  int
	kind vector.Kind
}

// SubsumptionInfoOf computes the subsumption summary of a normalized
// plan, or nil when the plan is ineligible (see the bail-outs above).
func SubsumptionInfoOf(root Node) *SubsumptionInfo {
	// Bail-out 1: row-collapsing operators anywhere make re-filtering the
	// final result unsound.
	eligible := true
	Walk(root, func(n Node) {
		switch n.(type) {
		case *Aggregate, *Limit:
			eligible = false
		}
	})
	if !eligible {
		return nil
	}

	rn := canonicalBindings(root)
	refCols := refilterableColumns(root, rn)

	// Collect every selection conjunct once: interval conjuncts over
	// re-filterable columns become the summary; everything else stays
	// verbatim in the key. A column whose bounds fail to merge loses
	// eligibility (its conjuncts go back to verbatim via elide).
	intervals := make(map[string]Interval)
	blocked := make(map[string]bool)
	collect := func(pred expr.Expr) {
		if pred == nil {
			return
		}
		for _, c := range expr.SplitAnd(FoldConstants(pred)) {
			ic, ok := asIntervalConjunct(c)
			if !ok {
				continue
			}
			name := canonColName(ic.col.Name, rn)
			rc, ok := refCols[name]
			if !ok || rc.kind != ic.col.K {
				continue
			}
			iv := intervals[name]
			if !iv.intersect(ic.bounds()) {
				blocked[name] = true
				continue
			}
			intervals[name] = iv
		}
	}
	Walk(root, func(n Node) {
		switch t := n.(type) {
		case *Select:
			collect(t.Pred)
		case *Mount:
			collect(t.Pred)
		case *CacheScan:
			collect(t.Pred)
		}
	})
	for name := range blocked {
		delete(intervals, name)
	}

	// The key: the canonical rendering with eligible interval conjuncts
	// elided entirely — a plan that does not constrain a column at all
	// shares the bucket with one that does (its interval is simply
	// unbounded), so a fully wider result can serve a constrained query.
	elide := func(c expr.Expr, rn map[string]string) (string, bool) {
		if ic, ok := asIntervalConjunct(c); ok {
			name := canonColName(ic.col.Name, rn)
			if rc, ok := refCols[name]; ok && rc.kind == ic.col.K && !blocked[name] {
				return "", false
			}
		}
		return canonExpr(c, rn), true
	}
	key := SubsumptionKey(sha256.Sum256([]byte("subsume:" + canonNodeWith(root, rn, elide))))

	return &SubsumptionInfo{
		Key:       key,
		Intervals: intervals,
		Refilter:  buildRefilter(intervals, refCols),
	}
}

// refilterableColumns maps canonical column names to output positions
// for columns that pass through to the plan's output untouched. The
// output node is the root, looked at through any Sorts (stable sort
// commutes with filtering); a bare-column projection is a passthrough,
// any computed expression is not. Ambiguous canonical names drop out.
func refilterableColumns(root Node, rn map[string]string) map[string]refCol {
	out := root
	for {
		s, ok := out.(*Sort)
		if !ok {
			break
		}
		out = s.Child
	}
	cols := make(map[string]refCol)
	ambiguous := make(map[string]bool)
	add := func(name string, rc refCol) {
		if _, dup := cols[name]; dup || ambiguous[name] {
			ambiguous[name] = true
			delete(cols, name)
			return
		}
		cols[name] = rc
	}
	if p, ok := out.(*Project); ok {
		for i, e := range p.Exprs {
			if c, ok := e.(*expr.Col); ok {
				add(canonColName(c.Name, rn), refCol{pos: i, kind: c.K})
			}
		}
		return cols
	}
	for i, ci := range out.Schema() {
		add(canonColName(ci.Qualified(), rn), refCol{pos: i, kind: ci.Kind})
	}
	return cols
}

// buildRefilter compiles the merged intervals into one predicate over
// the plan's output positions: what turns a wider cached result into
// this plan's answer. Interval semantics make it equivalent to the
// plan's own interval conjuncts, and comparableKinds guarantees it
// evaluates without error.
func buildRefilter(intervals map[string]Interval, refCols map[string]refCol) expr.Expr {
	names := make([]string, 0, len(intervals))
	for name := range intervals {
		names = append(names, name)
	}
	sort.Strings(names)
	var conjuncts []expr.Expr
	for _, name := range names {
		iv, rc := intervals[name], refCols[name]
		col := &expr.Col{Index: rc.pos, Name: name, K: rc.kind}
		if iv.HasLo {
			op := expr.Ge
			if iv.LoOpen {
				op = expr.Gt
			}
			conjuncts = append(conjuncts, &expr.Compare{Op: op, L: col, R: &expr.Const{Val: iv.Lo}})
		}
		if iv.HasHi {
			op := expr.Le
			if iv.HiOpen {
				op = expr.Lt
			}
			conjuncts = append(conjuncts, &expr.Compare{Op: op, L: col, R: &expr.Const{Val: iv.Hi}})
		}
	}
	return expr.JoinAnd(conjuncts)
}
