// Package vector implements typed column vectors, the unit of data flow
// in the vectorized execution engine. A Vector holds a homogeneous run of
// values of one Kind; operators exchange Batches of aligned vectors.
//
// The design follows the column-at-a-time processing model of analytical
// column stores: predicates produce selection vectors, and most kernels
// (filter, gather, hash) operate on whole vectors at once.
package vector

import (
	"fmt"
	"strconv"
	"time"
)

// Kind enumerates the value types supported by the engine.
type Kind uint8

// Supported kinds. KindTime is represented as int64 nanoseconds since the
// Unix epoch (UTC); it shares the int64 storage of KindInt64 but carries
// distinct comparison/formatting semantics.
const (
	KindInvalid Kind = iota
	KindBool
	KindInt64
	KindFloat64
	KindString
	KindTime
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindBool:
		return "BOOLEAN"
	case KindInt64:
		return "BIGINT"
	case KindFloat64:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindTime:
		return "TIMESTAMP"
	default:
		return "INVALID"
	}
}

// Numeric reports whether values of this kind participate in arithmetic.
func (k Kind) Numeric() bool {
	return k == KindInt64 || k == KindFloat64
}

// Fixed reports whether the kind has a fixed-width binary representation.
func (k Kind) Fixed() bool {
	return k != KindString && k != KindInvalid
}

// Width returns the on-disk width in bytes of one value of a fixed kind,
// and 0 for variable-width kinds.
func (k Kind) Width() int {
	switch k {
	case KindBool:
		return 1
	case KindInt64, KindFloat64, KindTime:
		return 8
	default:
		return 0
	}
}

// Vector is a growable, homogeneous column of values. The zero Vector is
// not usable; construct with New or one of the FromX helpers.
//
// Vectors are copy-on-write (see cow.go): Share and Slice hand out O(1)
// handles over the same storage, and mutation entry points materialize a
// private copy only when the storage is actually shared. The raw slice
// accessors (Bools, Int64s, ...) are read-only views; in-place writes go
// through Set, Permute or the Mutable accessors. A Const vector (see
// Const) stores one value standing for constLen rows.
type Vector struct {
	kind     Kind
	isConst  bool
	constLen uint32
	bs       []bool
	is       []int64 // also backs KindTime
	fs       []float64
	ss       []string
	sh       *share // copy-on-write share record, never nil
}

// New returns an empty vector of the given kind with capacity hint n.
func New(kind Kind, n int) *Vector {
	v := &Vector{kind: kind, sh: newShare()}
	switch kind {
	case KindBool:
		v.bs = make([]bool, 0, n)
	case KindInt64, KindTime:
		v.is = make([]int64, 0, n)
	case KindFloat64:
		v.fs = make([]float64, 0, n)
	case KindString:
		v.ss = make([]string, 0, n)
	default:
		panic("vector: New with invalid kind")
	}
	return v
}

// FromInt64 wraps the given slice (no copy) as a BIGINT vector.
func FromInt64(vals []int64) *Vector { return &Vector{kind: KindInt64, is: vals, sh: newShare()} }

// FromTime wraps the given epoch-nanosecond slice (no copy) as a TIMESTAMP vector.
func FromTime(vals []int64) *Vector { return &Vector{kind: KindTime, is: vals, sh: newShare()} }

// FromFloat64 wraps the given slice (no copy) as a DOUBLE vector.
func FromFloat64(vals []float64) *Vector { return &Vector{kind: KindFloat64, fs: vals, sh: newShare()} }

// FromString wraps the given slice (no copy) as a VARCHAR vector.
func FromString(vals []string) *Vector { return &Vector{kind: KindString, ss: vals, sh: newShare()} }

// FromBool wraps the given slice (no copy) as a BOOLEAN vector.
func FromBool(vals []bool) *Vector { return &Vector{kind: KindBool, bs: vals, sh: newShare()} }

// Kind returns the vector's value kind.
func (v *Vector) Kind() Kind { return v.kind }

// Len returns the number of values in the vector.
func (v *Vector) Len() int {
	if v.isConst {
		return int(v.constLen)
	}
	switch v.kind {
	case KindBool:
		return len(v.bs)
	case KindInt64, KindTime:
		return len(v.is)
	case KindFloat64:
		return len(v.fs)
	case KindString:
		return len(v.ss)
	default:
		return 0
	}
}

// Bools returns the backing slice of a BOOLEAN vector as a read-only
// view; writes go through Set or MutableBools so shared storage can be
// materialized first.
func (v *Vector) Bools() []bool { v.mustKind(KindBool); return view(v, v.bs) }

// Int64s returns the backing slice of a BIGINT or TIMESTAMP vector
// (read-only view; see Bools).
func (v *Vector) Int64s() []int64 {
	if v.kind != KindInt64 && v.kind != KindTime {
		panic(fmt.Sprintf("vector: Int64s on %s vector", v.kind))
	}
	return view(v, v.is)
}

// Float64s returns the backing slice of a DOUBLE vector (read-only view;
// see Bools).
func (v *Vector) Float64s() []float64 { v.mustKind(KindFloat64); return view(v, v.fs) }

// Strings returns the backing slice of a VARCHAR vector (read-only view;
// see Bools).
func (v *Vector) Strings() []string { v.mustKind(KindString); return view(v, v.ss) }

func (v *Vector) mustKind(k Kind) {
	if v.kind != k {
		panic(fmt.Sprintf("vector: kind mismatch: have %s, want %s", v.kind, k))
	}
}

// AppendBool appends to a BOOLEAN vector.
func (v *Vector) AppendBool(b bool) { v.mustKind(KindBool); v.materialize(); v.bs = append(v.bs, b) }

// AppendInt64 appends to a BIGINT or TIMESTAMP vector.
func (v *Vector) AppendInt64(i int64) {
	if v.kind != KindInt64 && v.kind != KindTime {
		panic(fmt.Sprintf("vector: AppendInt64 on %s vector", v.kind))
	}
	v.materialize()
	v.is = append(v.is, i)
}

// AppendFloat64 appends to a DOUBLE vector.
func (v *Vector) AppendFloat64(f float64) {
	v.mustKind(KindFloat64)
	v.materialize()
	v.fs = append(v.fs, f)
}

// AppendString appends to a VARCHAR vector.
func (v *Vector) AppendString(s string) {
	v.mustKind(KindString)
	v.materialize()
	v.ss = append(v.ss, s)
}

// AppendValue appends a scalar Value, which must match the vector kind
// (TIMESTAMP accepts BIGINT values and vice versa).
func (v *Vector) AppendValue(val Value) {
	v.materialize()
	switch v.kind {
	case KindBool:
		v.bs = append(v.bs, val.B)
	case KindInt64, KindTime:
		v.is = append(v.is, val.I)
	case KindFloat64:
		v.fs = append(v.fs, val.F)
	case KindString:
		v.ss = append(v.ss, val.S)
	default:
		panic("vector: AppendValue on invalid vector")
	}
}

// Get returns the value at index i as a scalar Value.
func (v *Vector) Get(i int) Value { return v.stored(v.row(i)) }

func (v *Vector) stored(i int) Value {
	switch v.kind {
	case KindBool:
		return Value{Kind: KindBool, B: v.bs[i]}
	case KindInt64:
		return Value{Kind: KindInt64, I: v.is[i]}
	case KindTime:
		return Value{Kind: KindTime, I: v.is[i]}
	case KindFloat64:
		return Value{Kind: KindFloat64, F: v.fs[i]}
	case KindString:
		return Value{Kind: KindString, S: v.ss[i]}
	default:
		panic("vector: Get on invalid vector")
	}
}

// Slice returns a new vector over rows [lo, hi) of v, aliasing v's
// storage until either side is written: the handles join one share
// group, so any mutation through either materializes a private copy
// first (capacity is capped at the window, so even an append can never
// bleed into the parent's tail).
func (v *Vector) Slice(lo, hi int) *Vector {
	if v.isConst {
		if lo < 0 || hi < lo || hi > v.Len() {
			panic(fmt.Sprintf("vector: slice bounds [%d:%d] out of range [0:%d]", lo, hi, v.Len()))
		}
		v.sh.refs.Add(1)
		return v.constOf(hi-lo, v.sh)
	}
	v.sh.refs.Add(1)
	out := &Vector{kind: v.kind, sh: v.sh}
	switch v.kind {
	case KindBool:
		out.bs = v.bs[lo:hi:hi]
	case KindInt64, KindTime:
		out.is = v.is[lo:hi:hi]
	case KindFloat64:
		out.fs = v.fs[lo:hi:hi]
	case KindString:
		out.ss = v.ss[lo:hi:hi]
	}
	return out
}

// Gather returns a new vector containing v[sel[0]], v[sel[1]], ... .
// Unlike Slice it always copies: the result is exclusively owned (a
// Const gathers to a Const of len(sel) rows).
func (v *Vector) Gather(sel []int) *Vector {
	if v.isConst {
		return v.constOf(len(sel), newShare())
	}
	out := New(v.kind, len(sel))
	switch v.kind {
	case KindBool:
		for _, i := range sel {
			out.bs = append(out.bs, v.bs[i])
		}
	case KindInt64, KindTime:
		for _, i := range sel {
			out.is = append(out.is, v.is[i])
		}
	case KindFloat64:
		for _, i := range sel {
			out.fs = append(out.fs, v.fs[i])
		}
	case KindString:
		for _, i := range sel {
			out.ss = append(out.ss, v.ss[i])
		}
	}
	return out
}

// AppendVector appends all values of src (same kind) to v. src is only
// read; v materializes shared storage first. A Const stays Const when
// src is a Const of the same value.
func (v *Vector) AppendVector(src *Vector) {
	if src.kind != v.kind && !(v.kind == KindTime && src.kind == KindInt64) &&
		!(v.kind == KindInt64 && src.kind == KindTime) {
		panic(fmt.Sprintf("vector: AppendVector kind mismatch: %s vs %s", v.kind, src.kind))
	}
	if v.isConst && src.isConst && v.sameConst(src) {
		v.constLen = constRows(v.Len() + src.Len())
		return
	}
	v.materialize()
	switch v.kind {
	case KindBool:
		v.bs = appendRows(v.bs, src.bs, src)
	case KindInt64, KindTime:
		v.is = appendRows(v.is, src.is, src)
	case KindFloat64:
		v.fs = appendRows(v.fs, src.fs, src)
	case KindString:
		v.ss = appendRows(v.ss, src.ss, src)
	}
}

// appendRows appends the rows of src, whose storage is s.
func appendRows[T any](dst, s []T, src *Vector) []T {
	if src.isConst {
		return appendN(dst, s[0], src.Len())
	}
	return append(dst, s...)
}

// Clone returns a deep copy of v: exclusively owned storage, regardless
// of how widely v is shared. Prefer Share at read-mostly boundaries —
// copy-on-write makes the copy lazy.
func (v *Vector) Clone() *Vector {
	out := New(v.kind, v.Len())
	out.AppendVector(v)
	return out
}

// Format returns the display form of the value at index i.
func (v *Vector) Format(i int) string {
	i = v.row(i)
	switch v.kind {
	case KindBool:
		return strconv.FormatBool(v.bs[i])
	case KindInt64:
		return strconv.FormatInt(v.is[i], 10)
	case KindTime:
		return FormatTime(v.is[i])
	case KindFloat64:
		return strconv.FormatFloat(v.fs[i], 'g', -1, 64)
	case KindString:
		return v.ss[i]
	default:
		return "?"
	}
}

// FormatTime renders epoch nanoseconds in the ISO form used by the paper's
// queries: 2010-01-12T22:15:00.000.
func FormatTime(ns int64) string {
	return time.Unix(0, ns).UTC().Format("2006-01-02T15:04:05.000")
}

// ParseTime parses the time-literal formats accepted in queries. It
// understands dates, second precision and millisecond precision.
func ParseTime(s string) (int64, error) {
	for _, layout := range []string{
		"2006-01-02T15:04:05.000",
		"2006-01-02T15:04:05",
		"2006-01-02 15:04:05.000",
		"2006-01-02 15:04:05",
		"2006-01-02",
	} {
		if t, err := time.Parse(layout, s); err == nil {
			return t.UTC().UnixNano(), nil
		}
	}
	return 0, fmt.Errorf("vector: cannot parse %q as timestamp", s)
}
