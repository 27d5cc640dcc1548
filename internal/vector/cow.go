package vector

import "sync/atomic"

// Copy-on-write ownership.
//
// Every Vector handle is attached to a share record counting how many
// handles reference the same backing storage. Freshly constructed
// vectors are exclusively owned (count 1). Share and Slice hand out new
// handles in O(1) by bumping the count; mutation entry points (Set, the
// Append family, Permute, the Mutable accessors) call materialize first,
// which copies the storage into a private allocation only when the count
// shows another handle could still observe it. The count is
// conservative: dropping a handle without mutating never decrements it,
// so a stale count can only cause an unnecessary copy, never a visible
// write through another handle.
//
// Concurrency contract: any number of goroutines may concurrently read
// and Share the same handle. Mutating a handle requires exclusive access
// to that handle — but not to the storage: two goroutines may mutate two
// different handles of the same share group concurrently, and each
// materializes its own private copy.
type share struct {
	refs atomic.Int64
}

func newShare() *share {
	s := &share{}
	s.refs.Store(1)
	return s
}

// cowCopies counts materializations: mutations that found their storage
// shared and had to copy it first. Benchmarks and tests read it to prove
// sharing boundaries stay O(1) until someone actually writes.
var cowCopies atomic.Int64

// CowCopies returns the number of copy-on-write materializations
// performed since process start.
func CowCopies() int64 { return cowCopies.Load() }

// forceCloneShares switches Share back to the deep-clone discipline this
// package replaced: a differential-testing knob, not a production mode.
var forceCloneShares atomic.Bool

// SetForceCloneShares makes every Share return a deep Clone when on,
// restoring the defensive-copy discipline at sharing boundaries so tests
// can compare the two. It returns the previous setting.
func SetForceCloneShares(on bool) bool { return forceCloneShares.Swap(on) }

// Share returns a new handle over v's storage in O(1). Both handles read
// the same values; the first mutation through either materializes a
// private copy for the mutating handle, so neither can ever observe the
// other's writes.
func (v *Vector) Share() *Vector {
	if forceCloneShares.Load() {
		return v.Clone()
	}
	v.sh.refs.Add(1)
	out := *v
	return &out
}

// Shared reports whether another handle may still reference v's storage
// (conservatively: handles dropped without mutating keep counting).
func (v *Vector) Shared() bool { return v.sh.refs.Load() > 1 }

// Freeze permanently marks v's storage as shared: every later mutation
// through any handle of the share group materializes a private copy
// first. Long-lived read-mostly data (post-ingestion buffers, replayed
// query results) freezes itself so no handle-bookkeeping mistake can
// ever corrupt it.
func (v *Vector) Freeze() { v.sh.refs.Add(1) }

// materialize makes v's storage private, copying it when any other
// handle could still observe it. Every mutation entry point calls it
// first. The copy happens before the count is released, so a concurrent
// mutation through another handle of the group either sees the storage
// still shared (and copies too) or already has its own. A Const is
// expanded into fresh storage, leaving its share group.
func (v *Vector) materialize() {
	if v.isConst {
		v.expand()
		v.sh.refs.Add(-1)
		v.sh = newShare()
		return
	}
	if v.sh.refs.Load() == 1 {
		return
	}
	switch v.kind {
	case KindBool:
		v.bs = append(make([]bool, 0, len(v.bs)), v.bs...)
	case KindInt64, KindTime:
		v.is = append(make([]int64, 0, len(v.is)), v.is...)
	case KindFloat64:
		v.fs = append(make([]float64, 0, len(v.fs)), v.fs...)
	case KindString:
		v.ss = append(make([]string, 0, len(v.ss)), v.ss...)
	}
	v.sh.refs.Add(-1)
	v.sh = newShare()
	cowCopies.Add(1)
}

// Reset truncates v to zero length. Shared storage is detached rather
// than copied — the old values are being discarded anyway — which lets
// append buffers be reused in place when they are exclusively owned.
// A Const's one-value storage is dropped, never reused.
func (v *Vector) Reset() {
	if v.sh.refs.Load() > 1 {
		v.sh.refs.Add(-1)
		v.sh = newShare()
		v.bs, v.is, v.fs, v.ss = nil, nil, nil, nil
	}
	if v.isConst {
		v.isConst, v.constLen = false, 0
		v.bs, v.is, v.fs, v.ss = nil, nil, nil, nil
	}
	switch v.kind {
	case KindBool:
		v.bs = v.bs[:0]
	case KindInt64, KindTime:
		v.is = v.is[:0]
	case KindFloat64:
		v.fs = v.fs[:0]
	case KindString:
		v.ss = v.ss[:0]
	}
}

// Set overwrites the value at index i, which must match the vector kind
// (TIMESTAMP accepts BIGINT values and vice versa). Shared storage is
// materialized first.
func (v *Vector) Set(i int, val Value) {
	v.materialize()
	switch v.kind {
	case KindBool:
		v.bs[i] = val.B
	case KindInt64, KindTime:
		v.is[i] = val.I
	case KindFloat64:
		v.fs[i] = val.F
	case KindString:
		v.ss[i] = val.S
	default:
		panic("vector: Set on invalid vector")
	}
}

// MutableBools returns the backing slice of a BOOLEAN vector for
// in-place writes, materializing shared storage first. The plain
// accessors (Bools, Int64s, ...) are read-only views; writing through
// them on a shared vector is a contract violation the share-count cannot
// intercept.
func (v *Vector) MutableBools() []bool { v.mustKind(KindBool); v.materialize(); return v.bs }

// MutableInt64s is the writable form of Int64s.
func (v *Vector) MutableInt64s() []int64 {
	if v.kind != KindInt64 && v.kind != KindTime {
		panic("vector: MutableInt64s on " + v.kind.String() + " vector")
	}
	v.materialize()
	return v.is
}

// MutableFloat64s is the writable form of Float64s.
func (v *Vector) MutableFloat64s() []float64 { v.mustKind(KindFloat64); v.materialize(); return v.fs }

// MutableStrings is the writable form of Strings.
func (v *Vector) MutableStrings() []string { v.mustKind(KindString); v.materialize(); return v.ss }

// Bytes estimates the resident size of the vector's storage: the unit
// cache and mount-service accounting is denominated in; a Const counts
// one value.
func (v *Vector) Bytes() int64 {
	n := int64(v.Len())
	if v.isConst {
		n = 1
	}
	switch v.kind {
	case KindBool:
		return n
	case KindString:
		var total int64
		for _, s := range v.ss {
			total += int64(len(s)) + 16
		}
		return total
	default:
		return n * 8
	}
}

// Permute reorders v in place so that the new value at position i is the
// old value at position perm[i]. perm must be a permutation of
// [0, Len()) and is left unchanged on return. Shared storage is
// materialized first; exclusively owned storage is permuted without
// allocating — the gather-in-place path sort uses.
func (v *Vector) Permute(perm []int) {
	v.materialize()
	switch v.kind {
	case KindBool:
		applyPerm(v.bs, perm)
	case KindInt64, KindTime:
		applyPerm(v.is, perm)
	case KindFloat64:
		applyPerm(v.fs, perm)
	case KindString:
		applyPerm(v.ss, perm)
	}
}

// applyPerm applies new[i] = old[perm[i]] in place by walking cycles.
// perm is used as the visited marker (entries are bit-flipped negative)
// and restored before returning.
func applyPerm[T any](s []T, perm []int) {
	for start := range perm {
		if perm[start] < 0 {
			continue
		}
		cur := start
		tmp := s[start]
		for {
			next := perm[cur]
			perm[cur] = -1 - next
			if next == start {
				s[cur] = tmp
				break
			}
			s[cur] = s[next]
			cur = next
		}
	}
	for i := range perm {
		perm[i] = -1 - perm[i]
	}
}
