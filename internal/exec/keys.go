package exec

import (
	"slices"

	"repro/internal/vector"
)

// keyTable is the hash join's table over its build side, with typed key
// kernels: keys hash from the raw typed slices (vector.HashVector) and
// candidate pairs are checked one key column at a time, so no key is
// boxed into a vector.Value. Equality is vector.Compare's: a pair with a
// DOUBLE on either side compares — and hashes, on both sides — as
// float64, where NaN equals everything. Build rows with a NaN key are
// therefore wildcards every probe merges in, and a probe row with a NaN
// key takes every build row as a candidate.
type keyTable struct {
	build   *vector.Batch
	keys    []int            // key columns of build
	asFloat []bool           // per key pair: compared as float64
	heads   map[uint64]int32 // first build row of each distinct key hash
	next    []int32          // next build row with the same hash; -1 ends
	wild    []int32          // build rows with a NaN key

	// Per-probe scratch, reused across batches (the pairs are consumed
	// by the gather that follows each probe).
	hbuf         []uint64
	prows, brows []int
	match        []int
}

// newKeyTable indexes the build batch on the given key columns; probeKinds
// are the kinds of the matching probe-side keys.
func newKeyTable(b *vector.Batch, keys []int, probeKinds []vector.Kind) *keyTable {
	n := b.Len()
	t := &keyTable{build: b, keys: keys, asFloat: make([]bool, len(keys)),
		heads: make(map[uint64]int32), next: make([]int32, n)}
	for i, k := range keys {
		t.asFloat[i] = b.Cols[k].Kind() == vector.KindFloat64 || probeKinds[i] == vector.KindFloat64
	}
	hashes := hashKeys(b, keys, t.asFloat, nil, n)
	nan := nanRows(b, keys, n)
	// Inserting in reverse makes every chain ascend from its head.
	for i := n - 1; i >= 0; i-- {
		if nan != nil && nan[i] {
			t.wild = append(t.wild, int32(i))
			continue
		}
		head, ok := t.heads[hashes[i]]
		if !ok {
			head = -1
		}
		t.next[i], t.heads[hashes[i]] = head, int32(i)
	}
	slices.Reverse(t.wild)
	return t
}

// probe matches every row of b (keyed by the given columns) against the
// table, returning the pairs (probe row, build row) in probe-row order
// and, within a probe row, in build-row order. The returned slices are
// valid until the next probe. A batch whose every key is Const (a
// mounted record) is probed as its first row, one hash and one chain,
// and the matches stand for every row; one is then the build row every
// probe row pairs with if exactly one matches, else -1.
func (t *keyTable) probe(b *vector.Batch, keys []int) (prows, brows []int, one int) {
	n, rows := b.Len(), min(b.Len(), 1)
	for _, k := range keys {
		if _, ok := b.Cols[k].ConstValue(); !ok {
			rows = n
		}
	}
	if cap(t.prows) < n {
		t.prows, t.brows = make([]int, 0, n), make([]int, 0, n)
	}
	prows, brows = t.prows[:0], t.brows[:0]
	t.hbuf = hashKeys(b, keys, t.asFloat, t.hbuf, rows)
	nan := nanRows(b, keys, rows)
	head, lastH, looked := int32(-1), uint64(0), false
	for i, h := range t.hbuf {
		if nan != nil && nan[i] {
			for r := range t.next {
				prows, brows = append(prows, i), append(brows, r)
			}
			continue
		}
		// Probe rows arrive in runs of one key (a record's samples).
		if !looked || h != lastH {
			var ok bool
			if head, ok = t.heads[h]; !ok {
				head = -1
			}
			lastH, looked = h, true
		}
		// Merge the chain with the wildcard rows, both ascending.
		r, w := head, t.wild
		for r >= 0 || len(w) > 0 {
			var c int32
			if r >= 0 && (len(w) == 0 || r < w[0]) {
				c, r = r, t.next[r]
			} else {
				c, w = w[0], w[1:]
			}
			prows, brows = append(prows, i), append(brows, int(c))
		}
	}
	// Hash-equal candidates become matches one key column at a time.
	for k, pk := range keys {
		prows, brows = keepEqual(b.Cols[pk], t.build.Cols[t.keys[k]], t.asFloat[k], prows, brows)
	}
	one = -1
	if rows < n {
		if len(brows) == 1 {
			one = brows[0]
		}
		t.match = append(t.match[:0], brows...)
		prows, brows = prows[:0], brows[:0]
		for i := range n {
			for _, r := range t.match {
				prows, brows = append(prows, i), append(brows, r)
			}
		}
	}
	t.prows, t.brows = prows, brows
	return prows, brows, one
}

// hashKeys hashes the key columns of b's first n rows into buf (reused
// when large enough); asFloat[i] hashes key i by float value.
func hashKeys(b *vector.Batch, keys []int, asFloat []bool, buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		buf = make([]uint64, n)
	}
	buf = buf[:n]
	clear(buf)
	for i, k := range keys {
		if asFloat[i] {
			vector.HashVectorAsFloat(b.Cols[k], buf)
		} else {
			vector.HashVector(b.Cols[k], buf)
		}
	}
	return buf
}

// nanRows marks which of b's first n rows hold a NaN in any DOUBLE key
// column, or returns nil when none do.
func nanRows(b *vector.Batch, keys []int, n int) []bool {
	var out []bool
	for _, k := range keys {
		if b.Cols[k].Kind() != vector.KindFloat64 {
			continue
		}
		if v, ok := b.Cols[k].ConstValue(); ok {
			if v.F != v.F {
				return slices.Repeat([]bool{true}, n)
			}
			continue
		}
		for i, f := range b.Cols[k].Float64s() {
			if f != f {
				if out == nil {
					out = make([]bool, n)
				}
				out[i] = true
			}
		}
	}
	return out
}

// keepEqual keeps the pairs whose probe key p[prows[i]] equals the build
// key b[brows[i]], compacting both lists in place, in order.
func keepEqual(p, b *vector.Vector, asFloat bool, prows, brows []int) ([]int, []int) {
	pv, pc := p.ConstValue()
	bv, bc := b.ConstValue()
	pf, bf := p.Kind() == vector.KindFloat64, b.Kind() == vector.KindFloat64
	switch {
	case pc && bc:
		if vector.Compare(pv, bv) == 0 {
			return prows, brows
		}
		return prows[:0], brows[:0]
	case pc:
		brows, prows = keepEqualTo(pv, b, asFloat, brows, prows)
		return prows, brows
	case bc:
		return keepEqualTo(bv, p, asFloat, prows, brows)
	case asFloat && pf && bf:
		return keepNumEqual(p.Float64s(), b.Float64s(), prows, brows)
	case asFloat && pf:
		return keepNumEqual(p.Float64s(), b.Int64s(), prows, brows)
	case asFloat:
		return keepNumEqual(p.Int64s(), b.Float64s(), prows, brows)
	case p.Kind() == vector.KindString:
		return keepSame(p.Strings(), b.Strings(), prows, brows)
	case p.Kind() == vector.KindBool:
		return keepSame(p.Bools(), b.Bools(), prows, brows)
	default:
		return keepSame(p.Int64s(), b.Int64s(), prows, brows)
	}
}

// keepEqualTo is keepEqual against a Const key x: it keeps the pairs
// whose v[rows[i]] equals x, compacting rows and other in place, in order.
func keepEqualTo(x vector.Value, v *vector.Vector, asFloat bool, rows, other []int) ([]int, []int) {
	switch {
	case asFloat && v.Kind() == vector.KindFloat64:
		return keepNumIs(x.AsFloat(), v.Float64s(), rows, other)
	case asFloat:
		return keepNumIs(x.AsFloat(), v.Int64s(), rows, other)
	case x.Kind == vector.KindString:
		return keepIs(x.S, v.Strings(), rows, other)
	case x.Kind == vector.KindBool:
		return keepIs(x.B, v.Bools(), rows, other)
	default:
		return keepIs(x.I, v.Int64s(), rows, other)
	}
}

func keepIs[T comparable](x T, s []T, rows, other []int) ([]int, []int) {
	n := 0
	for k, i := range rows {
		if s[i] == x {
			rows[n], other[n] = i, other[k]
			n++
		}
	}
	return rows[:n], other[:n]
}

// keepNumIs compares as float64, where NaN equals everything.
func keepNumIs[T int64 | float64](x float64, s []T, rows, other []int) ([]int, []int) {
	n := 0
	for k, i := range rows {
		if y := float64(s[i]); x == y || x != x || y != y {
			rows[n], other[n] = i, other[k]
			n++
		}
	}
	return rows[:n], other[:n]
}

func keepSame[T comparable](p, b []T, prows, brows []int) ([]int, []int) {
	n := 0
	for k, i := range prows {
		if j := brows[k]; p[i] == b[j] {
			prows[n], brows[n] = i, j
			n++
		}
	}
	return prows[:n], brows[:n]
}

// keepNumEqual compares as float64, where NaN equals everything.
func keepNumEqual[P, B int64 | float64](p []P, b []B, prows, brows []int) ([]int, []int) {
	n := 0
	for k, i := range prows {
		j := brows[k]
		if x, y := float64(p[i]), float64(b[j]); x == y || x != x || y != y {
			prows[n], brows[n] = i, j
			n++
		}
	}
	return prows[:n], brows[:n]
}
