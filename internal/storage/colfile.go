package storage

import (
	"encoding/binary"
	"math"

	"repro/internal/vector"
)

// Column files store fixed-width values little-endian: 8 bytes for
// BIGINT, DOUBLE and TIMESTAMP, 1 byte for BOOLEAN. VARCHAR columns are
// dictionary-encoded: the column file holds 8-byte dictionary codes and
// the dictionary itself lives beside it (see dict.go). Dictionary
// encoding matches what analytical column stores do for the
// low-cardinality strings that dominate scientific metadata (station
// codes, channel names, file URIs).

// diskWidth returns the on-disk width of one value of kind k.
func diskWidth(k vector.Kind) int {
	if k == vector.KindString {
		return 8 // dictionary code
	}
	return k.Width()
}

// encodeVector appends the binary form of v to dst. String vectors must
// be translated to codes by the caller; this function handles only fixed
// kinds.
func encodeVector(dst []byte, v *vector.Vector) []byte {
	switch v.Kind() {
	case vector.KindBool:
		for _, b := range v.Bools() {
			if b {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
	case vector.KindInt64, vector.KindTime:
		var buf [8]byte
		for _, x := range v.Int64s() {
			binary.LittleEndian.PutUint64(buf[:], uint64(x))
			dst = append(dst, buf[:]...)
		}
	case vector.KindFloat64:
		var buf [8]byte
		for _, x := range v.Float64s() {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			dst = append(dst, buf[:]...)
		}
	default:
		panic("storage: encodeVector on unsupported kind " + v.Kind().String())
	}
	return dst
}

// encodeValue appends the binary form of one value of a fixed kind, as
// encodeVector writes each row.
func encodeValue(dst []byte, val vector.Value) []byte {
	switch val.Kind {
	case vector.KindBool:
		if val.B {
			return append(dst, 1)
		}
		return append(dst, 0)
	case vector.KindFloat64:
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(val.F))
	default:
		return binary.LittleEndian.AppendUint64(dst, uint64(val.I))
	}
}

// decodeVector decodes n values of fixed kind k from raw into a fresh
// vector.
func decodeVector(k vector.Kind, raw []byte, n int) *vector.Vector {
	switch k {
	case vector.KindBool:
		out := make([]bool, n)
		for i := 0; i < n; i++ {
			out[i] = raw[i] != 0
		}
		return vector.FromBool(out)
	case vector.KindInt64, vector.KindTime:
		out := make([]int64, n)
		for i := 0; i < n; i++ {
			out[i] = int64(binary.LittleEndian.Uint64(raw[i*8:]))
		}
		if k == vector.KindTime {
			return vector.FromTime(out)
		}
		return vector.FromInt64(out)
	case vector.KindFloat64:
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		}
		return vector.FromFloat64(out)
	default:
		panic("storage: decodeVector on unsupported kind " + k.String())
	}
}

// decodePage decodes the whole values of one column-file page into a
// fresh vector that keeps no part of raw. A VARCHAR page's codes resolve
// through dict under one read lock; a code the dictionary lacks is an
// error.
func decodePage(k vector.Kind, raw []byte, dict *Dict) (*vector.Vector, error) {
	if k != vector.KindString {
		return decodeVector(k, raw, len(raw)/diskWidth(k)), nil
	}
	ss, err := dict.Resolve(raw)
	if err != nil {
		return nil, err
	}
	return vector.FromString(ss), nil
}
