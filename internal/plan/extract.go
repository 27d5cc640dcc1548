package plan

import (
	"math"
	"strings"

	"repro/internal/expr"
	"repro/internal/vector"
)

// This file is the one place that answers "what does a conjunctive
// predicate say about one column?" — the question the run-time
// optimization phase keeps asking of σp3 (which part of a file does the
// query need, which records can it not touch). The answer is an interval
// plus the residual conjuncts the interval does not stand for, so that
//
//	pred  ≡  (column ∈ interval) ∧ residual
//
// holds exactly. A conjunct is absorbed only when it has the interval
// shape asIntervalConjunct accepts (`col CMP const` in either
// orientation, op in = < <= > >=, executor-comparable kinds, non-NaN
// constant) and the interval represents it fully; everything else — OR,
// <>, other columns, a bound the requested view cannot express — is
// residual and leaves its side unbounded. Callers that plan with the
// interval alone (pruning) get a sound superset; callers that treat it
// as the whole predicate must check that the residual is empty.

// ColumnInterval extracts the interval pred places on the named column
// and the conjuncts it did not absorb. The column is given by its
// qualified name ("D.sample_value"); the bare name matches too, since
// plans carry both spellings.
func ColumnInterval(pred expr.Expr, qualified string) (Interval, []expr.Expr) {
	iv, _, residual := extract(pred, qualified, false)
	return iv, residual
}

// Span is the closed-int64 view of what a predicate says about an
// integer-valued span column (e.g. D.sample_time): the currency of the
// ingestion cache, the mount service's record skipping and the metadata
// record spans.
type Span struct {
	Lo, Hi   int64       // inclusive; MinInt64 / MaxInt64 on an unbounded side
	Absorbed []expr.Expr // the conjuncts [Lo, Hi] represents exactly
	Residual []expr.Expr // the rest: pred ≡ Absorbed ∧ Residual
}

// Bounded reports whether the predicate restricts the span at all.
func (sp Span) Bounded() bool { return len(sp.Absorbed) > 0 }

// ColumnSpan is ColumnInterval for a span column. Strict bounds are
// closed (t > 5 ⇔ t >= 6), which is exact only for an integer column
// against an integer constant with room to step: a float constant, a
// non-integer column, `> MaxInt64` and `< MinInt64` stay residual rather
// than wrap.
func ColumnSpan(pred expr.Expr, qualified string) Span {
	iv, absorbed, residual := extract(pred, qualified, true)
	sp := Span{Lo: math.MinInt64, Hi: math.MaxInt64, Absorbed: absorbed, Residual: residual}
	if iv.HasLo {
		sp.Lo = iv.Lo.I
	}
	if iv.HasHi {
		sp.Hi = iv.Hi.I
	}
	return sp
}

// extract is the shared loop. With closed set, only bounds closeInt64
// can express are absorbed, so the returned interval has closed integer
// bounds. The absorbed conjuncts reuse SplitAnd's slice.
func extract(pred expr.Expr, qualified string, closed bool) (iv Interval, absorbed, residual []expr.Expr) {
	if pred == nil {
		return Interval{}, nil, nil
	}
	bare := qualified[strings.LastIndexByte(qualified, '.')+1:]
	conjuncts := expr.SplitAnd(pred)
	absorbed = conjuncts[:0]
	for _, c := range conjuncts {
		if b, ok := columnBound(c, qualified, bare, closed); ok {
			// An incomparable merge (cannot happen between bounds one column
			// kind admits, but intersect reports it) leaves iv untouched.
			if merged := iv; merged.intersect(b) {
				iv = merged
				absorbed = append(absorbed, c)
				continue
			}
		}
		residual = append(residual, c)
	}
	return iv, absorbed, residual
}

// columnBound returns the bound conjunct c places on the column, when c
// is an interval conjunct over it that the requested view can express.
func columnBound(c expr.Expr, qualified, bare string, closed bool) (Interval, bool) {
	ic, ok := asIntervalConjunct(c)
	if !ok || ic.col.Name == "" || ic.col.Name != qualified && ic.col.Name != bare {
		return Interval{}, false
	}
	if closed {
		return ic.bounds().closeInt64(ic.col.K)
	}
	return ic.bounds(), true
}

// closeInt64 rewrites an interval over a column of kind colK into closed
// integer bounds, reporting false when that is not exact.
func (iv Interval) closeInt64(colK vector.Kind) (Interval, bool) {
	if !intish(colK) || iv.HasLo && !intish(iv.Lo.Kind) || iv.HasHi && !intish(iv.Hi.Kind) {
		return iv, false
	}
	if iv.LoOpen {
		if iv.Lo.I == math.MaxInt64 {
			return iv, false
		}
		iv.Lo.I, iv.LoOpen = iv.Lo.I+1, false
	}
	if iv.HiOpen {
		if iv.Hi.I == math.MinInt64 {
			return iv, false
		}
		iv.Hi.I, iv.HiOpen = iv.Hi.I-1, false
	}
	return iv, true
}

// Disjoint reports whether the closed summary [lo, hi] provably shares
// no value with the interval — the test that lets a planner skip a
// record from its min/max alone. Conservative: NaN or incomparable
// summary bounds never prove disjointness.
func (iv Interval) Disjoint(lo, hi vector.Value) bool {
	if isNaN(lo) || isNaN(hi) {
		return false
	}
	if iv.HasLo {
		if cmp, ok := compareConsts(hi, iv.Lo); ok && (cmp < 0 || cmp == 0 && iv.LoOpen) {
			return true
		}
	}
	if iv.HasHi {
		if cmp, ok := compareConsts(lo, iv.Hi); ok && (cmp > 0 || cmp == 0 && iv.HiOpen) {
			return true
		}
	}
	return false
}
