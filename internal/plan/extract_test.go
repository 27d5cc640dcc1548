package plan

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/vector"
)

// TestColumnExtraction is the one table for the one extractor: what each
// conjunct shape contributes to the general interval and to the closed
// int64 span view, and what comes back as residual.
func TestColumnExtraction(t *testing.T) {
	const tName, vName = "D.sample_time", "D.sample_value"
	tc := &expr.Col{Index: 0, Name: tName, K: vector.KindTime}
	bare := &expr.Col{Index: 0, Name: "sample_time", K: vector.KindTime}
	vc := &expr.Col{Index: 1, Name: vName, K: vector.KindFloat64}
	cmp := func(op expr.CmpOp, l, r expr.Expr) expr.Expr { return &expr.Compare{Op: op, L: l, R: r} }
	k := func(v vector.Value) expr.Expr { return &expr.Const{Val: v} }
	ti := func(i int64) expr.Expr { return k(vector.Time(i)) }
	and := func(cs ...expr.Expr) expr.Expr { return expr.JoinAnd(cs) }
	// iv builds an interval from "lo"/"hi" values; a nil side is unbounded.
	iv := func(lo *vector.Value, loOpen bool, hi *vector.Value, hiOpen bool) Interval {
		var out Interval
		if lo != nil {
			out.HasLo, out.Lo, out.LoOpen = true, *lo, loOpen
		}
		if hi != nil {
			out.HasHi, out.Hi, out.HiOpen = true, *hi, hiOpen
		}
		return out
	}
	tv := func(i int64) *vector.Value { v := vector.Time(i); return &v }
	fv := func(f float64) *vector.Value { v := vector.Float64(f); return &v }
	const minI, maxI = math.MinInt64, math.MaxInt64

	ne := cmp(expr.Ne, tc, ti(5))
	or := &expr.Logic{Op: expr.OpOr, L: cmp(expr.Lt, tc, ti(5)), R: cmp(expr.Gt, tc, ti(9))}
	vPos := cmp(expr.Gt, vc, k(vector.Float64(0)))
	overMax := cmp(expr.Gt, tc, ti(maxI))
	underMin := cmp(expr.Gt, ti(minI), tc) // MinInt64 > t
	half := cmp(expr.Gt, tc, k(vector.Float64(1.5)))
	nan := cmp(expr.Gt, vc, k(vector.Float64(math.NaN())))
	str := cmp(expr.Eq, tc, k(vector.Str("x")))

	cases := []struct {
		name   string
		pred   expr.Expr
		column string
		// The closed span view and the conjuncts it must hand back.
		lo, hi       int64
		bounded      bool
		spanResidual []expr.Expr
		// The general interval and its residual.
		interval   Interval
		ivResidual []expr.Expr
	}{
		{name: "nil predicate", pred: nil, column: tName, lo: minI, hi: maxI},
		{name: "strict bounds, both orientations",
			pred: and(cmp(expr.Gt, tc, ti(100)), cmp(expr.Gt, ti(200), tc)), column: tName,
			lo: 101, hi: 199, bounded: true, interval: iv(tv(100), true, tv(200), true)},
		{name: "closed bounds, both orientations",
			pred: and(cmp(expr.Le, ti(10), tc), cmp(expr.Le, tc, ti(20))), column: tName,
			lo: 10, hi: 20, bounded: true, interval: iv(tv(10), false, tv(20), false)},
		{name: "flipped >= is an upper bound",
			pred: cmp(expr.Ge, ti(500), tc), column: tName,
			lo: minI, hi: 500, bounded: true, interval: iv(nil, false, tv(500), false)},
		{name: "equality pins both sides",
			pred: cmp(expr.Eq, ti(42), tc), column: tName,
			lo: 42, hi: 42, bounded: true, interval: iv(tv(42), false, tv(42), false)},
		{name: "tightest bound wins",
			pred: and(cmp(expr.Gt, tc, ti(3)), cmp(expr.Ge, tc, ti(6)), cmp(expr.Gt, tc, ti(5))), column: tName,
			lo: 6, hi: maxI, bounded: true, interval: iv(tv(6), false, nil, false)},
		{name: "<> is residual", pred: ne, column: tName,
			lo: minI, hi: maxI, spanResidual: []expr.Expr{ne}, ivResidual: []expr.Expr{ne}},
		{name: "OR over the column is residual", pred: or, column: tName,
			lo: minI, hi: maxI, spanResidual: []expr.Expr{or}, ivResidual: []expr.Expr{or}},
		{name: "nested AND, other column residual",
			pred: and(and(cmp(expr.Ge, tc, ti(1)), vPos), and(cmp(expr.Le, tc, ti(9)), ne)), column: tName,
			lo: 1, hi: 9, bounded: true, spanResidual: []expr.Expr{vPos, ne},
			interval: iv(tv(1), false, tv(9), false), ivResidual: []expr.Expr{vPos, ne}},
		{name: "unrelated column only", pred: vPos, column: tName,
			lo: minI, hi: maxI, spanResidual: []expr.Expr{vPos}, ivResidual: []expr.Expr{vPos}},
		{name: "bare column name matches the qualified one",
			pred: cmp(expr.Lt, bare, ti(7)), column: tName,
			lo: minI, hi: 6, bounded: true, interval: iv(nil, false, tv(7), true)},
		{name: "> MaxInt64 cannot be closed: residual, not wrapped",
			pred: and(overMax, cmp(expr.Ge, tc, ti(3))), column: tName,
			lo: 3, hi: maxI, bounded: true, spanResidual: []expr.Expr{overMax},
			interval: iv(tv(maxI), true, nil, false)},
		{name: "< MinInt64 cannot be closed: residual, not wrapped",
			pred: underMin, column: tName,
			lo: minI, hi: maxI, spanResidual: []expr.Expr{underMin},
			interval: iv(nil, false, tv(minI), true)},
		{name: "float constant against the time column",
			pred: and(half, cmp(expr.Lt, tc, ti(4))), column: tName,
			lo: minI, hi: 3, bounded: true, spanResidual: []expr.Expr{half},
			interval: iv(fv(1.5), true, tv(4), true)},
		{name: "string constant against the time column", pred: str, column: tName,
			lo: minI, hi: maxI, spanResidual: []expr.Expr{str}, ivResidual: []expr.Expr{str}},
		{name: "value column: open and closed float bounds",
			pred:   and(cmp(expr.Gt, vc, k(vector.Float64(1.5))), cmp(expr.Ge, k(vector.Float64(9.5)), vc), cmp(expr.Ge, tc, ti(1))),
			column: vName, lo: minI, hi: maxI,
			spanResidual: []expr.Expr{cmp(expr.Gt, vc, k(vector.Float64(1.5))), cmp(expr.Ge, k(vector.Float64(9.5)), vc), cmp(expr.Ge, tc, ti(1))},
			interval:     iv(fv(1.5), true, fv(9.5), false), ivResidual: []expr.Expr{cmp(expr.Ge, tc, ti(1))}},
		{name: "NaN constant is residual", pred: nan, column: vName,
			lo: minI, hi: maxI, spanResidual: []expr.Expr{nan}, ivResidual: []expr.Expr{nan}},
		{name: "empty column name matches nothing", pred: cmp(expr.Lt, tc, ti(7)), column: "",
			lo: minI, hi: maxI, spanResidual: []expr.Expr{cmp(expr.Lt, tc, ti(7))},
			ivResidual: []expr.Expr{cmp(expr.Lt, tc, ti(7))}},
	}
	sameConjuncts := func(got, want []expr.Expr) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if canonExpr(got[i], nil) != canonExpr(want[i], nil) {
				return false
			}
		}
		return true
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			total := 0
			if c.pred != nil {
				total = len(expr.SplitAnd(c.pred))
			}
			sp := ColumnSpan(c.pred, c.column)
			if sp.Lo != c.lo || sp.Hi != c.hi || sp.Bounded() != c.bounded {
				t.Errorf("span = [%d,%d] bounded=%v, want [%d,%d] bounded=%v", sp.Lo, sp.Hi, sp.Bounded(), c.lo, c.hi, c.bounded)
			}
			if !sameConjuncts(sp.Residual, c.spanResidual) {
				t.Errorf("span residual = %v, want %v", sp.Residual, c.spanResidual)
			}
			if len(sp.Absorbed)+len(sp.Residual) != total {
				t.Errorf("span absorbed %d + residual %d conjuncts of %d", len(sp.Absorbed), len(sp.Residual), total)
			}
			got, rest := ColumnInterval(c.pred, c.column)
			if got != c.interval {
				t.Errorf("interval = %+v, want %+v", got, c.interval)
			}
			if !sameConjuncts(rest, c.ivResidual) {
				t.Errorf("interval residual = %v, want %v", rest, c.ivResidual)
			}
		})
	}
}

// TestIntervalDisjoint pins the [min, max]-summary view, open and closed
// endpoints, integer and float summaries alike.
func TestIntervalDisjoint(t *testing.T) {
	f := vector.Float64
	open := Interval{HasLo: true, Lo: f(1), LoOpen: true, HasHi: true, Hi: f(2), HiOpen: true}
	closed := Interval{HasLo: true, Lo: vector.Int64(1), HasHi: true, Hi: vector.Int64(2)}
	cases := []struct {
		iv     Interval
		lo, hi vector.Value
		want   bool
	}{
		{open, f(0), f(0.5), true},
		{open, f(0), f(1), true}, // touches the open lower endpoint only
		{open, f(2), f(3), true}, // touches the open upper endpoint only
		{open, f(1.5), f(1.6), false},
		{open, f(0), f(3), false},
		{open, f(math.NaN()), f(1), false}, // a NaN bound never proves disjointness
		{open, f(3), f(math.NaN()), false},
		{closed, f(2.1), f(3), true},
		{closed, f(2), f(3), false},
		{closed, vector.Int64(0), vector.Int64(1), false},
		{closed, vector.Time(-5), vector.Time(0), true},
		{closed, vector.Str("a"), vector.Str("b"), false}, // incomparable: no proof
		{Interval{}, f(0), f(1), false},
	}
	for _, c := range cases {
		if got := c.iv.Disjoint(c.lo, c.hi); got != c.want {
			t.Errorf("%+v.Disjoint(%v, %v) = %v, want %v", c.iv, c.lo, c.hi, got, c.want)
		}
	}
}

// TestColumnExtractionProperty is the soundness contract, checked row by
// row: over random conjunct soups (interval shapes in both orientations,
// <>, OR, a second column, float constants against the integer column,
// bounds at the int64 limits) and random batches, every row satisfying
// the predicate lies inside the extracted interval, and interval ∧
// residual selects exactly the predicate's rows — for the general
// interval and for the closed span view.
func TestColumnExtractionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	tc := &expr.Col{Index: 0, Name: "D.t", K: vector.KindTime}
	vc := &expr.Col{Index: 1, Name: "D.v", K: vector.KindFloat64}
	ops := []expr.CmpOp{expr.Eq, expr.Ne, expr.Lt, expr.Le, expr.Gt, expr.Ge}
	edge := []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64}

	randCompare := func() expr.Expr {
		c, k := expr.Expr(tc), vector.Time(int64(rng.Intn(12)))
		switch rng.Intn(6) {
		case 0:
			c, k = vc, vector.Float64(float64(rng.Intn(24))/2)
		case 1:
			k = vector.Float64(float64(rng.Intn(24)) / 2)
		case 2:
			k = vector.Time(edge[rng.Intn(len(edge))])
		}
		op := ops[rng.Intn(len(ops))]
		if rng.Intn(2) == 0 {
			return &expr.Compare{Op: op, L: c, R: &expr.Const{Val: k}}
		}
		return &expr.Compare{Op: op, L: &expr.Const{Val: k}, R: c}
	}
	selected := func(pred expr.Expr, b *vector.Batch) []bool {
		if pred == nil {
			out := make([]bool, b.Len())
			for i := range out {
				out[i] = true
			}
			return out
		}
		pv, err := pred.Eval(b)
		if err != nil {
			t.Fatalf("eval %s: %v", pred, err)
		}
		return pv.Bools()
	}

	for trial := 0; trial < 300; trial++ {
		var conjuncts []expr.Expr
		for i, n := 0, 1+rng.Intn(5); i < n; i++ {
			c := randCompare()
			if rng.Intn(5) == 0 {
				c = &expr.Logic{Op: expr.OpOr, L: c, R: randCompare()}
			}
			conjuncts = append(conjuncts, c)
		}
		pred := expr.JoinAnd(conjuncts)

		rows := 1 + rng.Intn(40)
		ts := make([]int64, rows)
		vs := make([]float64, rows)
		for r := range ts {
			ts[r] = int64(rng.Intn(12))
			if rng.Intn(10) == 0 {
				ts[r] = edge[rng.Intn(len(edge))]
			}
			vs[r] = float64(rng.Intn(24)) / 2
		}
		tvec := vector.New(vector.KindTime, rows)
		for _, x := range ts {
			tvec.AppendInt64(x)
		}
		batch := vector.NewBatch(tvec, vector.FromFloat64(vs))
		want := selected(pred, batch)

		sp := ColumnSpan(pred, "D.t")
		spRest := selected(expr.JoinAnd(sp.Residual), batch)
		spAbsorbed := selected(expr.JoinAnd(sp.Absorbed), batch)
		ivT, restT := ColumnInterval(pred, "D.t")
		ivTRest := selected(expr.JoinAnd(restT), batch)
		ivV, restV := ColumnInterval(pred, "D.v")
		ivVRest := selected(expr.JoinAnd(restV), batch)
		for r := 0; r < rows; r++ {
			inSpan := sp.Lo <= ts[r] && ts[r] <= sp.Hi
			if spAbsorbed[r] != inSpan {
				t.Fatalf("trial %d row %d (t=%d): absorbed conjuncts say %v, span [%d,%d] says %v\npred: %s",
					trial, r, ts[r], spAbsorbed[r], sp.Lo, sp.Hi, inSpan, pred)
			}
			inT := !ivT.Disjoint(vector.Time(ts[r]), vector.Time(ts[r]))
			inV := !ivV.Disjoint(vector.Float64(vs[r]), vector.Float64(vs[r]))
			if want[r] && !(inSpan && inT && inV) {
				t.Fatalf("trial %d row %d (t=%d v=%v) satisfies the predicate outside an interval: span=%v t=%v v=%v\npred: %s",
					trial, r, ts[r], vs[r], inSpan, inT, inV, pred)
			}
			if got := inSpan && spRest[r]; got != want[r] {
				t.Fatalf("trial %d row %d: span ∧ residual = %v, predicate = %v\npred: %s", trial, r, got, want[r], pred)
			}
			if got := inT && ivTRest[r]; got != want[r] {
				t.Fatalf("trial %d row %d: t-interval ∧ residual = %v, predicate = %v\npred: %s", trial, r, got, want[r], pred)
			}
			if got := inV && ivVRest[r]; got != want[r] {
				t.Fatalf("trial %d row %d: v-interval ∧ residual = %v, predicate = %v\npred: %s", trial, r, got, want[r], pred)
			}
		}
	}
}
