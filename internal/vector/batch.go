package vector

import (
	"fmt"
	"strings"
)

// DefaultBatchSize is the number of rows operators aim to move per batch.
const DefaultBatchSize = 4096

// Batch is a set of aligned column vectors: the horizontal unit of data
// flow between physical operators. All columns have the same length.
type Batch struct {
	Cols []*Vector
}

// NewBatch returns a batch over the given columns, validating alignment.
func NewBatch(cols ...*Vector) *Batch {
	b := &Batch{Cols: cols}
	if len(cols) > 0 {
		n := cols[0].Len()
		for i, c := range cols {
			if c.Len() != n {
				panic(fmt.Sprintf("vector: batch column %d has %d rows, want %d", i, c.Len(), n))
			}
		}
	}
	return b
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int {
	if len(b.Cols) == 0 {
		return 0
	}
	return b.Cols[0].Len()
}

// NumCols returns the number of columns.
func (b *Batch) NumCols() int { return len(b.Cols) }

// Gather returns a new batch with only the selected row indexes. It
// always copies: the result is exclusively owned.
func (b *Batch) Gather(sel []int) *Batch {
	cols := make([]*Vector, len(b.Cols))
	for i, c := range b.Cols {
		cols[i] = c.Gather(sel)
	}
	return &Batch{Cols: cols}
}

// Slice returns a batch over rows [lo, hi) aliasing b's storage until
// written: the columns join b's share groups, so mutations through
// either side materialize private copies (see Vector.Slice).
func (b *Batch) Slice(lo, hi int) *Batch {
	cols := make([]*Vector, len(b.Cols))
	for i, c := range b.Cols {
		cols[i] = c.Slice(lo, hi)
	}
	return &Batch{Cols: cols}
}

// Clone returns a deep copy of the batch: mutations of either copy can
// never be observed through the other, and no copy-on-write accounting
// ties them together. Prefer Share at shared-state boundaries — it is
// O(1) and defers the copy until a mutation actually happens.
func (b *Batch) Clone() *Batch {
	cols := make([]*Vector, len(b.Cols))
	for i, c := range b.Cols {
		cols[i] = c.Clone()
	}
	return &Batch{Cols: cols}
}

// Share returns a new batch handle over the same storage in O(1). This
// is the sanctioned way to hand one batch to a second owner (the
// ingestion cache, a flight's replay buffer, a retained result): each
// owner holds its own handle, reads are free, and the first mutation
// through any handle materializes a private copy for that handle only.
// The new column handles are allocated together, as one object.
func (b *Batch) Share() *Batch {
	if forceCloneShares.Load() {
		return b.Clone()
	}
	cols := make([]*Vector, len(b.Cols))
	handles := make([]Vector, len(b.Cols))
	for i, c := range b.Cols {
		c.sh.refs.Add(1)
		handles[i] = *c
		cols[i] = &handles[i]
	}
	return &Batch{Cols: cols}
}

// Freeze permanently marks every column's storage as shared: any later
// mutation through any handle copies first. Long-lived read-mostly
// batches (replayed Qf results, cache entries) freeze themselves as
// belt-and-braces against handle-ownership mistakes.
func (b *Batch) Freeze() {
	for _, c := range b.Cols {
		c.Freeze()
	}
}

// Shared reports whether any column's storage may still be referenced by
// another handle.
func (b *Batch) Shared() bool {
	for _, c := range b.Cols {
		if c.Shared() {
			return true
		}
	}
	return false
}

// Bytes estimates the resident size of the batch: the unit the ingestion
// cache and the mount service's replay accounting are denominated in.
func (b *Batch) Bytes() int64 {
	var total int64
	for _, c := range b.Cols {
		total += c.Bytes()
	}
	return total
}

// Permute reorders the batch in place so that new row i is old row
// perm[i]; perm must be a permutation of [0, Len()) and is left
// unchanged. Shared columns are materialized first; exclusively owned
// columns are permuted without allocating (sort's gather-in-place path).
func (b *Batch) Permute(perm []int) {
	for _, c := range b.Cols {
		c.Permute(perm)
	}
}

// Row returns the values of row i across all columns.
func (b *Batch) Row(i int) []Value {
	out := make([]Value, len(b.Cols))
	for j, c := range b.Cols {
		out[j] = c.Get(i)
	}
	return out
}

// SelFromBools converts a boolean predicate vector into a selection
// vector of the indexes where the predicate holds.
func SelFromBools(pred *Vector) []int {
	bs := pred.Bools()
	sel := make([]int, 0, len(bs))
	for i, ok := range bs {
		if ok {
			sel = append(sel, i)
		}
	}
	return sel
}

// FormatRow renders row i of the batch as a tab-separated line.
func (b *Batch) FormatRow(i int) string {
	parts := make([]string, len(b.Cols))
	for j, c := range b.Cols {
		parts[j] = c.Format(i)
	}
	return strings.Join(parts, "\t")
}
