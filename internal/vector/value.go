package vector

import (
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
)

// Value is a scalar of any supported Kind. Exactly one of the payload
// fields is meaningful, selected by Kind (I backs both BIGINT and
// TIMESTAMP).
type Value struct {
	Kind Kind
	B    bool
	I    int64
	F    float64
	S    string
}

// Bool, Int64, Float64, Str and Time construct scalar values.
func Bool(b bool) Value       { return Value{Kind: KindBool, B: b} }
func Int64(i int64) Value     { return Value{Kind: KindInt64, I: i} }
func Float64(f float64) Value { return Value{Kind: KindFloat64, F: f} }
func Str(s string) Value      { return Value{Kind: KindString, S: s} }
func Time(ns int64) Value     { return Value{Kind: KindTime, I: ns} }

// IsNumeric reports whether the value participates in arithmetic.
func (v Value) IsNumeric() bool { return v.Kind.Numeric() }

// AsFloat converts a numeric value to float64.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt64, KindTime:
		return float64(v.I)
	case KindFloat64:
		return v.F
	default:
		panic(fmt.Sprintf("vector: AsFloat on %s value", v.Kind))
	}
}

// AsInt converts a numeric value to int64 (floats are truncated).
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KindInt64, KindTime:
		return v.I
	case KindFloat64:
		return int64(v.F)
	default:
		panic(fmt.Sprintf("vector: AsInt on %s value", v.Kind))
	}
}

// String renders the value for display.
func (v Value) String() string {
	switch v.Kind {
	case KindBool:
		return strconv.FormatBool(v.B)
	case KindInt64:
		return strconv.FormatInt(v.I, 10)
	case KindTime:
		return FormatTime(v.I)
	case KindFloat64:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	default:
		return "NULL"
	}
}

// Compare orders two values of compatible kinds: -1, 0 or +1. Numeric
// kinds compare numerically across int/float; TIMESTAMP compares as its
// underlying instant.
func Compare(a, b Value) int {
	switch {
	case a.Kind == KindString && b.Kind == KindString:
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		}
		return 0
	case a.Kind == KindBool && b.Kind == KindBool:
		switch {
		case !a.B && b.B:
			return -1
		case a.B && !b.B:
			return 1
		}
		return 0
	case (a.Kind == KindInt64 || a.Kind == KindTime) && (b.Kind == KindInt64 || b.Kind == KindTime):
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	case a.IsNumeric() && b.IsNumeric():
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	default:
		panic(fmt.Sprintf("vector: Compare of %s and %s", a.Kind, b.Kind))
	}
}

// Equal reports value equality under Compare semantics.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// hashSeed is the process-wide seed for value hashing.
var hashSeed = maphash.MakeSeed()

// HashVector hashes every element of v into dst (which must have length
// v.Len()), combining with any existing contents of dst so multi-column
// keys can be hashed by repeated calls. Values that compare equal within
// one kind hash equal (±0 included), and BIGINT and TIMESTAMP share a
// hash; the kernels read the typed slices directly, boxing nothing. A
// Const's value is hashed once, and dst may then also have length 1.
func HashVector(v *Vector, dst []uint64) {
	hashVector(v, dst, false)
}

// HashVectorAsFloat is HashVector for a key compared against a DOUBLE:
// integers hash by their float64 conversion, the value vector.Compare
// compares them at, so an Int64 and a Float64 that compare equal always
// hash equal — even past 2^53, where distinct integers share one float.
// For a DOUBLE vector it is HashVector.
func HashVectorAsFloat(v *Vector, dst []uint64) {
	hashVector(v, dst, true)
}

func hashVector(v *Vector, dst []uint64, asFloat bool) {
	if len(dst) != v.Len() && !(v.isConst && len(dst) == 1) {
		panic("vector: HashVector length mismatch")
	}
	if v.isConst {
		var h [1]uint64
		hashStored(v, h[:], asFloat)
		for i := range dst {
			dst[i] = combine(dst[i], h[0])
		}
		return
	}
	hashStored(v, dst, asFloat)
}

// hashStored hashes v's storage, one entry per stored value, into dst.
func hashStored(v *Vector, dst []uint64, asFloat bool) {
	switch v.kind {
	case KindInt64, KindTime:
		if asFloat {
			for i, x := range v.is {
				dst[i] = combine(dst[i], hashFloat(float64(x)))
			}
			return
		}
		for i, x := range v.is {
			dst[i] = combine(dst[i], mix64(uint64(x)))
		}
	case KindFloat64:
		for i, x := range v.fs {
			dst[i] = combine(dst[i], hashFloat(x))
		}
	case KindString:
		// Consecutive rows often repeat a key (a file's uri on each of its
		// records): reuse the previous hash instead of rehashing the bytes.
		var prev string
		var ph uint64
		for i, x := range v.ss {
			if i == 0 || x != prev {
				prev, ph = x, maphash.String(hashSeed, x)
			}
			dst[i] = combine(dst[i], ph)
		}
	case KindBool:
		for i, x := range v.bs {
			var b uint64
			if x {
				b = 1
			}
			dst[i] = combine(dst[i], mix64(b))
		}
	}
}

// hashFloat hashes an integral float in int64 range as that integer (so
// -0 and +0 meet, and an integral DOUBLE meets the BIGINT it equals) and
// any other float by its bits.
func hashFloat(f float64) uint64 {
	if f == math.Trunc(f) && f >= -(1<<63) && f < 1<<63 {
		return mix64(uint64(int64(f)))
	}
	return mix64(math.Float64bits(f))
}

// mix64 is the splitmix64 finalizer: a bijection on uint64, so distinct
// integer keys never collide, with every output bit depending on every
// input bit.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func combine(acc, h uint64) uint64 {
	return acc*0x9e3779b97f4a7c15 + h
}
