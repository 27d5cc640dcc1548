package vector

import (
	"math"
	"sync/atomic"
)

// constExpansions counts Const vectors written out into n-row slices.
var constExpansions atomic.Int64

// ConstExpansions returns how many times since process start a Const
// vector was written out into an n-row slice: by a read-only view, or by
// a mutation that had to expand it first.
func ConstExpansions() int64 { return constExpansions.Load() }

// Const returns a vector of n rows that all hold val (a mounted record's
// uri or record_id): a representation of val's kind, not a Kind of its
// own. Its storage is the one-element slice a one-row vector would hold
// and is never written in place — every mutation entry point expands it
// into fresh storage first — so Gather and Slice hand it out in O(1).
// The read-only views (Int64s, Strings, ...) return a fresh expansion
// each call and leave the handle Const, so concurrent readers stay safe.
func Const(val Value, n int) *Vector {
	v := &Vector{kind: val.Kind, isConst: true, constLen: constRows(n), sh: newShare()}
	switch val.Kind {
	case KindBool:
		v.bs = []bool{val.B}
	case KindInt64, KindTime:
		v.is = []int64{val.I}
	case KindFloat64:
		v.fs = []float64{val.F}
	case KindString:
		v.ss = []string{val.S}
	default:
		panic("vector: Const with invalid kind")
	}
	return v
}

// ConstValue returns the value of a Const vector and true (even for zero
// rows), or false for an ordinary vector.
func (v *Vector) ConstValue() (Value, bool) {
	if !v.isConst {
		return Value{}, false
	}
	return v.stored(0), true
}

// constOf is a new handle of n rows over Const v's storage, in share sh.
func (v *Vector) constOf(n int, sh *share) *Vector {
	out := *v
	out.constLen, out.sh = constRows(n), sh
	return &out
}

// constRows is n as a Const's row count, which the vector header holds
// in 32 bits beside its kind so that a Const costs no header bytes.
func constRows(n int) uint32 {
	if n < 0 || n > math.MaxUint32 {
		panic("vector: Const row count out of range")
	}
	return uint32(n)
}

// sameConst reports whether Consts v and o hold the same value bit for
// bit (-0 and +0 differ).
func (v *Vector) sameConst(o *Vector) bool {
	a, b := v.stored(0), o.stored(0)
	return a.Kind == b.Kind && a.B == b.B && a.I == b.I && a.S == b.S &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

// row maps row i to its storage index: 0 in a Const (unchecked, so that
// Get stays inlinable).
func (v *Vector) row(i int) int {
	if v.isConst {
		return 0
	}
	return i
}

// expand turns a Const into ordinary storage of its rows.
func (v *Vector) expand() {
	e := New(v.kind, v.Len())
	e.AppendVector(v)
	v.bs, v.is, v.fs, v.ss = e.bs, e.is, e.fs, e.ss
	v.isConst, v.constLen = false, 0
	constExpansions.Add(1)
}

// view is the read-only view of v's storage s: s itself, or a Const
// written out into a fresh slice.
func view[T any](v *Vector, s []T) []T {
	if !v.isConst {
		return s
	}
	constExpansions.Add(1)
	return appendN(make([]T, 0, v.Len()), s[0], v.Len())
}

func appendN[T any](dst []T, x T, n int) []T {
	for ; n > 0; n-- {
		dst = append(dst, x)
	}
	return dst
}

// Concat returns the rows of batches (at least one, all of one layout)
// in order as one batch, sizing each column once; a column every input
// holds as the same Const value stays Const. A single batch is returned
// as is (callers that need a second owner take a Share).
func Concat(batches []*Batch) *Batch {
	if len(batches) == 1 {
		return batches[0]
	}
	cols := make([]*Vector, batches[0].NumCols())
	for j := range cols {
		first := batches[0].Cols[j]
		n, same := 0, first.isConst
		for _, b := range batches {
			n += b.Cols[j].Len()
			same = same && b.Cols[j].isConst && b.Cols[j].sameConst(first)
		}
		if same {
			cols[j] = first.constOf(n, newShare())
			continue
		}
		cols[j] = New(first.kind, n)
		for _, b := range batches {
			cols[j].AppendVector(b.Cols[j])
		}
	}
	return NewBatch(cols...)
}
