package vector

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// twin is a Const vector and its expanded equivalent.
type twin struct{ c, e *Vector }

// constValues are the values the Const property test repeats: every kind,
// with the float edge cases whose bits must survive (-0, NaN).
var constValues = []Value{
	Bool(true), Int64(-7), Time(1_263_334_500_000_000_000), Float64(math.Copysign(0, -1)),
	Float64(math.NaN()), Float64(2.5), Str("file:///ISK/BHE/2010-012"),
}

// expanded is val written out n times as an ordinary vector.
func expanded(val Value, n int) *Vector {
	v := New(val.Kind, n)
	for i := 0; i < n; i++ {
		v.AppendValue(val)
	}
	return v
}

func twins(n int) []twin {
	out := make([]twin, len(constValues))
	for i, val := range constValues {
		out[i] = twin{Const(val, n), expanded(val, n)}
	}
	return out
}

// sameRows fails unless a and b have the same kind, length and rows,
// compared by display form (which tells -0 and NaN apart from 0).
func sameRows(t *testing.T, what string, a, b *Vector) {
	t.Helper()
	if a.Kind() != b.Kind() || a.Len() != b.Len() {
		t.Fatalf("%s: %s×%d vs %s×%d", what, a.Kind(), a.Len(), b.Kind(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Format(i) != b.Format(i) || a.Get(i).Kind != b.Get(i).Kind {
			t.Fatalf("%s: row %d is %s, want %s", what, i, a.Format(i), b.Format(i))
		}
	}
}

func mustConst(t *testing.T, what string, v *Vector) {
	t.Helper()
	if _, ok := v.ConstValue(); !ok {
		t.Fatalf("%s: not Const", what)
	}
}

// other is a value of val's kind that differs from it.
func other(val Value) Value {
	switch val.Kind {
	case KindBool:
		return Bool(!val.B)
	case KindString:
		return Str(val.S + "x")
	case KindFloat64:
		return Float64(42)
	default:
		return Value{Kind: val.Kind, I: val.I + 1e9}
	}
}

// TestConstMatchesExpandedTwin is the Const property test: every
// operation on a Const vector gives what it gives on the same rows
// written out, and the O(1) operations keep the result Const.
func TestConstMatchesExpandedTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7} {
		for _, tw := range twins(n) {
			c, e := tw.c, tw.e
			name := fmt.Sprintf("%s×%d", c.Kind(), n)
			sameRows(t, name, c, e)

			lo := rng.Intn(n + 1)
			hi := lo + rng.Intn(n-lo+1)
			sameRows(t, name+" Slice", c.Slice(lo, hi), e.Slice(lo, hi))
			mustConst(t, name+" Slice", c.Slice(lo, hi))

			var sel []int
			for i := 0; n > 0 && i < 5; i++ {
				sel = append(sel, rng.Intn(n))
			}
			sameRows(t, name+" Gather", c.Gather(sel), e.Gather(sel))
			mustConst(t, name+" Gather", c.Gather(sel))

			val, _ := c.ConstValue()
			if got, want := c.Bytes(), expanded(val, 1).Bytes(); got != want {
				t.Fatalf("%s: Bytes = %d, want one stored value's %d", name, got, want)
			}

			hc, he := make([]uint64, n), make([]uint64, n)
			HashVector(c, hc)
			HashVector(e, he)
			if fmt.Sprint(hc) != fmt.Sprint(he) {
				t.Fatalf("%s: HashVector %v, want %v", name, hc, he)
			}
			if c.Kind().Numeric() || c.Kind() == KindTime {
				HashVectorAsFloat(c, hc)
				HashVectorAsFloat(e, he)
				if fmt.Sprint(hc) != fmt.Sprint(he) {
					t.Fatalf("%s: HashVectorAsFloat %v, want %v", name, hc, he)
				}
			}

			perm := rng.Perm(n)
			cp, ep := c.Clone(), e.Clone()
			cp.Permute(perm)
			ep.Permute(perm)
			sameRows(t, name+" Permute", cp, ep)

			// AppendVector: the same value stays Const, another expands.
			ca, ea := c.Share(), e.Clone()
			ca.AppendVector(Const(val, 3))
			ea.AppendVector(expanded(val, 3))
			sameRows(t, name+" AppendVector same", ca, ea)
			mustConst(t, name+" AppendVector same", ca)
			ca.AppendVector(Const(other(val), 2))
			ea.AppendVector(expanded(other(val), 2))
			sameRows(t, name+" AppendVector other", ca, ea)
			ca.AppendValue(val)
			ea.AppendValue(val)
			sameRows(t, name+" AppendValue", ca, ea)

			// Share + mutate: the share expands privately, c is untouched.
			if n > 0 {
				s := c.Share()
				s.Set(n-1, other(val))
				se := e.Clone()
				se.Set(n-1, other(val))
				sameRows(t, name+" Share+Set", s, se)
				sameRows(t, name+" Share+Set original", c, e)
				mustConst(t, name+" Share+Set original", c)
			}

			if n > 0 {
				mc := c.Share()
				switch c.Kind() {
				case KindBool:
					mc.MutableBools()[0] = !val.B
				case KindInt64, KindTime:
					mc.MutableInt64s()[0] = val.I + 1e9
				case KindFloat64:
					mc.MutableFloat64s()[0] = 42
				case KindString:
					mc.MutableStrings()[0] = "mutated"
				}
				sameRows(t, name+" Mutable original", c, e)
				if mc.Format(0) == c.Format(0) {
					t.Fatalf("%s: Mutable write lost", name)
				}
			}

			// Concat: equal Consts stay Const; a mix concatenates exactly.
			cb, eb := NewBatch(c), NewBatch(e)
			cc := Concat([]*Batch{cb, NewBatch(Const(val, 2)), cb})
			ec := Concat([]*Batch{eb, NewBatch(expanded(val, 2)), eb})
			sameRows(t, name+" Concat same", cc.Cols[0], ec.Cols[0])
			mustConst(t, name+" Concat same", cc.Cols[0])
			cm := Concat([]*Batch{cb, NewBatch(Const(other(val), 2)), NewBatch(e)})
			em := Concat([]*Batch{eb, NewBatch(expanded(other(val), 2)), eb})
			sameRows(t, name+" Concat mixed", cm.Cols[0], em.Cols[0])
			if cap(cm.Cols[0].is)+cap(cm.Cols[0].fs)+cap(cm.Cols[0].ss)+cap(cm.Cols[0].bs) != 2*n+2 {
				t.Fatalf("%s: Concat did not size the column once", name)
			}
		}
	}
}

// TestConstViewsExpandWithoutWriting: the read-only views expand into a
// fresh slice each time, count it, and never turn the handle ordinary —
// which is what lets any number of goroutines read one handle at once.
func TestConstViewsExpandWithoutWriting(t *testing.T) {
	c := Const(Str("u"), 4096)
	before := ConstExpansions()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s := c.Strings(); len(s) != 4096 || s[4095] != "u" {
				t.Errorf("Strings() = %d rows", len(s))
			}
			_ = c.Share().Gather([]int{1, 2})
		}()
	}
	wg.Wait()
	mustConst(t, "after concurrent reads", c)
	if d := ConstExpansions() - before; d != 4 {
		t.Fatalf("ConstExpansions delta = %d, want 4", d)
	}
	if a, b := c.Strings(), c.Strings(); &a[0] == &b[0] {
		t.Fatal("two views of a Const share one expansion")
	}
}
