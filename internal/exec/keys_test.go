package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/vector"
)

// keyPool draws key values of one kind from a small pool, so keys repeat,
// with the edge values the kernels must treat exactly as vector.Compare
// does: ±0, NaN, "", integers past 2^53 and at the int64 limits.
func keyPool(rng *rand.Rand, k vector.Kind, n int) *vector.Vector {
	ints := []int64{0, 1, 2, -1, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64}
	floats := []float64{0, math.Copysign(0, -1), 1, 2, -1, math.NaN(), 1 << 53, 1 << 63, -1.5, math.Inf(1)}
	strs := []string{"", "a", "b", "ab"}
	v := vector.New(k, n)
	for i := 0; i < n; i++ {
		switch k {
		case vector.KindInt64, vector.KindTime:
			v.AppendInt64(ints[rng.Intn(len(ints))])
		case vector.KindFloat64:
			v.AppendFloat64(floats[rng.Intn(len(floats))])
		case vector.KindString:
			v.AppendString(strs[rng.Intn(len(strs))])
		case vector.KindBool:
			v.AppendBool(rng.Intn(2) == 0)
		}
	}
	return v
}

// keyedSide is a materialized join input: key columns of the given kinds
// followed by a row-id payload column, split into batches. With konst
// each batch holds each key as a Const column two times in three: all
// keys Const, as in a mounted record, or a mix of Const and ordinary.
func keyedSide(rng *rand.Rand, table string, kinds []vector.Kind, n int, konst bool) *Materialized {
	m := &Materialized{}
	for i, k := range kinds {
		m.Schema = append(m.Schema, plan.ColInfo{Table: table, Name: fmt.Sprintf("k%d", i), Kind: k})
	}
	m.Schema = append(m.Schema, plan.ColInfo{Table: table, Name: "id", Kind: vector.KindInt64})
	for lo := 0; lo < n; {
		hi := min(n, lo+1+rng.Intn(7))
		cols := make([]*vector.Vector, 0, len(kinds)+1)
		for _, k := range kinds {
			if konst && rng.Intn(3) > 0 {
				cols = append(cols, vector.Const(keyPool(rng, k, 1).Get(0), hi-lo))
			} else {
				cols = append(cols, keyPool(rng, k, hi-lo))
			}
		}
		ids := make([]int64, 0, hi-lo)
		for id := lo; id < hi; id++ {
			ids = append(ids, int64(id))
		}
		m.Batches = append(m.Batches, vector.NewBatch(append(cols, vector.FromInt64(ids))...))
		lo = hi
	}
	m.Freeze()
	return m
}

// nestedLoopJoin is the reference: every (left, right) row pair whose
// keys are pairwise vector.Equal, left-major — the hash join's contract.
func nestedLoopJoin(l, r *Materialized, nkeys int) [][2]int64 {
	lb, rb := l.Flatten(), r.Flatten()
	var out [][2]int64
	for i := 0; i < lb.Len(); i++ {
		for j := 0; j < rb.Len(); j++ {
			eq := true
			for k := 0; k < nkeys && eq; k++ {
				eq = vector.Equal(lb.Cols[k].Get(i), rb.Cols[k].Get(j))
			}
			if eq {
				out = append(out, [2]int64{lb.Cols[nkeys].Int64s()[i], rb.Cols[nkeys].Int64s()[j]})
			}
		}
	}
	return out
}

// TestHashJoinKernelsMatchNestedLoop is the typed join kernels' property
// test: over random inputs of every key kind and kind pairing, the hash
// join — building on either side, emitting all columns or only the two
// row ids — returns exactly the nested-loop reference's pairs, in order.
// Every third trial gives the left side Const keys per batch, and every
// fifth the right side: the key pools repeat values, so Const probes meet
// NaN keys, no match, one match and several matching build rows.
func TestHashJoinKernelsMatchNestedLoop(t *testing.T) {
	I, T, F, S, B := vector.KindInt64, vector.KindTime, vector.KindFloat64, vector.KindString, vector.KindBool
	pairings := [][2][]vector.Kind{
		{{I}, {I}}, {{T}, {I}}, {{F}, {F}}, {{I}, {F}}, {{F}, {I}},
		{{S}, {S}}, {{B}, {B}}, {{S, I}, {S, I}}, {{I, F}, {T, F}}, {{F, S}, {I, S}},
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		p := pairings[trial%len(pairings)]
		l := keyedSide(rng, "L", p[0], rng.Intn(40), trial%3 == 2)
		r := keyedSide(rng, "R", p[1], rng.Intn(40), trial%5 == 4)
		want := nestedLoopJoin(l, r, len(p[0]))
		var lk, rk []string
		for k := range p[0] {
			lk, rk = append(lk, fmt.Sprintf("L.k%d", k)), append(rk, fmt.Sprintf("R.k%d", k))
		}
		nl := len(l.Schema)
		for _, emit := range [][]int{nil, {nl - 1, nl + len(r.Schema) - 1}} {
			for _, flip := range []bool{false, true} {
				env := &Env{Results: map[string]*Materialized{"l": l, "r": r}, Mounts: &MountStats{}, BatchSize: 5}
				if flip {
					env.Card = stubCard{"l": 0, "r": 1}
				}
				join := &plan.Join{
					Left:     &plan.ResultScan{Name: "l", Cols: l.Schema},
					Right:    &plan.ResultScan{Name: "r", Cols: r.Schema},
					LeftKeys: lk, RightKeys: rk, Emit: emit,
				}
				out, err := Run(join, env)
				if err != nil {
					t.Fatal(err)
				}
				lid, rid := nl-1, len(out.Schema)-1
				if emit != nil {
					lid = 0
				}
				var got [][2]int64
				for _, b := range out.Batches {
					for i := 0; i < b.Len(); i++ {
						got = append(got, [2]int64{b.Cols[lid].Int64s()[i], b.Cols[rid].Int64s()[i]})
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("trial %d %v⋈%v emit=%v flip=%v:\n got %v\nwant %v", trial, p[0], p[1], emit, flip, got, want)
				}
			}
		}
	}
}

// TestHashJoinMixedIntFloatKeys is the regression for BIGINT ⋈ DOUBLE
// keys that compare equal as floats but are different integers
// (2^53+1 = 2^53 and MaxInt64 = 2^63 in float64): the hash join must
// return exactly the pairs a cross join filtered by the same equality
// keeps, as benchmark-style hand-built plans over result-scans run it.
func TestHashJoinMixedIntFloatKeys(t *testing.T) {
	ints := &Materialized{
		Schema:  []plan.ColInfo{{Table: "L", Name: "k", Kind: vector.KindInt64}},
		Batches: []*vector.Batch{vector.NewBatch(vector.FromInt64([]int64{1<<53 + 1, math.MaxInt64, 3, 7}))},
	}
	floats := &Materialized{
		Schema:  []plan.ColInfo{{Table: "R", Name: "f", Kind: vector.KindFloat64}},
		Batches: []*vector.Batch{vector.NewBatch(vector.FromFloat64([]float64{1 << 53, 1 << 63, 3, 7.5}))},
	}
	left := &plan.ResultScan{Name: "l", Cols: ints.Schema}
	right := &plan.ResultScan{Name: "r", Cols: floats.Schema}
	run := func(n plan.Node) string {
		out, err := Run(n, &Env{Results: map[string]*Materialized{"l": ints, "r": floats}})
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		for _, b := range out.Batches {
			for i := 0; i < b.Len(); i++ {
				rows = append(rows, b.FormatRow(i))
			}
		}
		return fmt.Sprint(rows)
	}
	hashed := run(&plan.Join{Left: left, Right: right, LeftKeys: []string{"L.k"}, RightKeys: []string{"R.f"}})
	filtered := run(&plan.Select{
		Pred: &expr.Compare{Op: expr.Eq,
			L: &expr.Col{Index: 0, Name: "L.k", K: vector.KindInt64},
			R: &expr.Col{Index: 1, Name: "R.f", K: vector.KindFloat64}},
		Child: &plan.Join{Left: left, Right: right},
	})
	if hashed != filtered {
		t.Fatalf("hash join %s, filtered cross join %s", hashed, filtered)
	}
	if want := "[9007199254740993\t9.007199254740992e+15 9223372036854775807\t9.223372036854776e+18 3\t3]"; hashed != want {
		t.Fatalf("hash join %s, want %s", hashed, want)
	}
}

// aggVector draws an aggregate argument of the given kind; floats include
// ±0 and NaN, sometimes in the leading position MIN/MAX keep it from.
func aggVector(rng *rand.Rand, k vector.Kind, n int) *vector.Vector {
	v := vector.New(k, n)
	for i := 0; i < n; i++ {
		switch k {
		case vector.KindFloat64:
			switch x := rng.Intn(12); {
			case x == 0 || (i == 0 && rng.Intn(3) == 0):
				v.AppendFloat64(math.NaN())
			case x == 1:
				v.AppendFloat64(math.Copysign(0, -1))
			default:
				v.AppendFloat64(rng.NormFloat64() * 1e3)
			}
		case vector.KindString:
			v.AppendString(fmt.Sprint(rng.Intn(50)))
		default:
			v.AppendInt64(rng.Int63n(1<<40) - 1<<39)
		}
	}
	return v
}

func sameValue(a, b vector.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Kind == vector.KindFloat64 {
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	return a == b
}

// TestAggKernelsMatchBoxedAdd is the aggregate kernels' property test:
// AddVector over a sequence of vectors returns, value for value and bit
// for bit, what the boxed Add sequence over the same rows returns: float
// sums in row order, a leading NaN kept by MIN/MAX.
func TestAggKernelsMatchBoxedAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	funcs := []plan.AggFunc{plan.AggCount, plan.AggSum, plan.AggAvg, plan.AggMin, plan.AggMax}
	kinds := []vector.Kind{vector.KindInt64, vector.KindTime, vector.KindFloat64, vector.KindString}
	for trial := 0; trial < 400; trial++ {
		k := kinds[trial%len(kinds)]
		fn := funcs[rng.Intn(len(funcs))]
		if k == vector.KindString && (fn == plan.AggSum || fn == plan.AggAvg) {
			continue
		}
		spec := plan.AggSpec{Func: fn, Arg: &expr.Col{Name: "x", K: k}, Distinct: rng.Intn(5) == 0}
		typed, boxed := NewAggState(spec), NewAggState(spec)
		for i := 0; i < 1+rng.Intn(3); i++ {
			v := aggVector(rng, k, rng.Intn(30))
			typed.AddVector(v)
			for r := 0; r < v.Len(); r++ {
				boxed.Add(v.Get(r))
			}
		}
		if got, want := typed.Result(), boxed.Result(); !sameValue(got, want) {
			t.Fatalf("trial %d %s(%s) distinct=%v: typed %v (%v), boxed %v (%v)",
				trial, fn, k, spec.Distinct, got, got.Kind, want, want.Kind)
		}
	}
}

// TestGroupedAggMatchesBoxedReference checks the grouped path's typed
// group hashing against a first-seen-order reference built from
// vector.Equal and boxed Add.
func TestGroupedAggMatchesBoxedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		keyKind := []vector.Kind{vector.KindInt64, vector.KindString, vector.KindTime}[trial%3]
		m := &Materialized{Schema: []plan.ColInfo{
			{Table: "T", Name: "g", Kind: keyKind}, {Table: "T", Name: "x", Kind: vector.KindFloat64}}}
		for b := 0; b < 1+rng.Intn(4); b++ {
			n := rng.Intn(25)
			m.Batches = append(m.Batches, vector.NewBatch(keyPool(rng, keyKind, n), aggVector(rng, vector.KindFloat64, n)))
		}
		x := &expr.Col{Index: 1, Name: "T.x", K: vector.KindFloat64}
		aggs := []plan.AggSpec{{Func: plan.AggCount, Name: "n"}, {Func: plan.AggSum, Arg: x, Name: "s"},
			{Func: plan.AggAvg, Arg: x, Name: "a"}, {Func: plan.AggMin, Arg: x, Name: "lo"}, {Func: plan.AggMax, Arg: x, Name: "hi"}}
		out, err := Run(&plan.Aggregate{GroupBy: []string{"T.g"}, Aggs: aggs,
			Child: &plan.ResultScan{Name: "t", Cols: m.Schema}}, &Env{Results: map[string]*Materialized{"t": m}})
		if err != nil {
			t.Fatal(err)
		}
		var keys []vector.Value
		var states [][]AggState
		for _, b := range m.Batches {
			for r := 0; r < b.Len(); r++ {
				g := -1
				for i, k := range keys {
					if vector.Equal(k, b.Cols[0].Get(r)) {
						g = i
						break
					}
				}
				if g < 0 {
					g = len(keys)
					keys = append(keys, b.Cols[0].Get(r))
					st := make([]AggState, len(aggs))
					for i, spec := range aggs {
						st[i] = NewAggState(spec)
					}
					states = append(states, st)
				}
				for i, spec := range aggs {
					if spec.Arg == nil {
						states[g][i].AddCount(1)
					} else {
						states[g][i].Add(b.Cols[1].Get(r))
					}
				}
			}
		}
		got := out.Flatten()
		if got.Len() != len(keys) {
			t.Fatalf("trial %d: %d groups, want %d", trial, got.Len(), len(keys))
		}
		for g := range keys {
			if !sameValue(got.Cols[0].Get(g), keys[g]) {
				t.Fatalf("trial %d group %d key %v, want %v", trial, g, got.Cols[0].Get(g), keys[g])
			}
			for i := range aggs {
				want := CoerceValue(states[g][i].Result(), got.Cols[1+i].Kind())
				if !sameValue(got.Cols[1+i].Get(g), want) {
					t.Fatalf("trial %d group %d %s = %v, want %v", trial, g, aggs[i].Name, got.Cols[1+i].Get(g), want)
				}
			}
		}
	}
}
