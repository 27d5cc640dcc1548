// Package index implements disk-resident sorted key indexes used by the
// eager-ingestion (Ei) baseline for primary- and foreign-key lookups.
//
// An index is a file of fixed-width entries (keyA, keyB, rowID), sorted
// by (keyA, keyB). Lookups binary-search the file through the buffer
// pool, so a cold index pays modeled random I/O exactly the way the
// paper describes MonetDB's foreign-key indexes being "brought into main
// memory to compute the joins" — the effect behind Ei's cold-run times
// in Figure 3. Each call reads entries through a cursor that keeps the
// last page it fetched: steps and matches on that page make no pool
// call, and an entry that straddles two pages is read from both.
//
// String keys are indexed by their dictionary codes (equality semantics
// only), numeric and timestamp keys by value (equality and range).
package index

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"

	"repro/internal/storage"
)

// EntrySize is the on-disk width of one index entry.
const EntrySize = 24

// Entry is one (composite key, row) pair. Single-column keys set B to 0.
type Entry struct {
	A, B  int64
	RowID int64
}

// Less orders entries by (A, B, RowID).
func (e Entry) Less(o Entry) bool {
	if e.A != o.A {
		return e.A < o.A
	}
	if e.B != o.B {
		return e.B < o.B
	}
	return e.RowID < o.RowID
}

// Build sorts the entries and writes them to path, charging the modeled
// write cost to the pool's clock. It returns the opened index.
func Build(path string, pool *storage.BufferPool, entries []Entry) (*Index, error) {
	sort.Slice(entries, func(i, j int) bool { return entries[i].Less(entries[j]) })
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("index: create %s: %w", path, err)
	}
	buf := make([]byte, 0, 1<<20)
	var written int64
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		n, err := f.Write(buf)
		written += int64(n)
		buf = buf[:0]
		return err
	}
	var tmp [EntrySize]byte
	for _, e := range entries {
		binary.LittleEndian.PutUint64(tmp[0:], uint64(e.A))
		binary.LittleEndian.PutUint64(tmp[8:], uint64(e.B))
		binary.LittleEndian.PutUint64(tmp[16:], uint64(e.RowID))
		buf = append(buf, tmp[:]...)
		if len(buf) >= 1<<20 {
			if err := flush(); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	// Model an external sort, which is what building this index over a
	// table exceeding memory costs: run generation writes every entry,
	// the merge pass reads the runs back and writes the final file. (The
	// in-memory sort above is the real CPU cost.)
	pool.Model().ChargeWrite(pool.Clock(), written) // run generation
	pages := int((written + storage.PageSize - 1) / storage.PageSize)
	pool.Model().ChargeRead(pool.Clock(), pages, true) // merge input
	pool.Model().ChargeWrite(pool.Clock(), written)    // final file
	pool.Invalidate(path)
	return Open(path, pool)
}

// Index is an open sorted index file.
type Index struct {
	path string
	f    *os.File
	pool *storage.BufferPool
	n    int64 // entry count
}

// Open opens an index previously written by Build.
func Open(path string, pool *storage.BufferPool) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size()%EntrySize != 0 {
		f.Close()
		return nil, fmt.Errorf("index: %s has %d bytes, not a multiple of %d", path, st.Size(), EntrySize)
	}
	return &Index{path: path, f: f, pool: pool, n: st.Size() / EntrySize}, nil
}

// Close releases the file handle.
func (ix *Index) Close() error { return ix.f.Close() }

// Len returns the number of entries.
func (ix *Index) Len() int64 { return ix.n }

// SizeOnDisk returns the index file size in bytes.
func (ix *Index) SizeOnDisk() int64 { return ix.n * EntrySize }

// Path returns the index file path.
func (ix *Index) Path() string { return ix.path }

// cursor reads the entries of one index for one call. It keeps the last
// page it fetched, so an entry on that page costs no pool call. The page
// is the pool frame's own immutable bytes, which stay valid after the
// frame is evicted.
type cursor struct {
	ix   *Index
	page int64 // the page data holds; -1 before the first fetch
	data []byte
}

func (ix *Index) cursor() cursor { return cursor{ix: ix, page: -1} }

// word returns the 64-bit word at byte offset off. Words are 8-aligned
// and PageSize is a multiple of 8, so a word never straddles two pages;
// an entry may (PageSize is not a multiple of EntrySize), so entry reads
// it word by word.
func (c *cursor) word(off int64) (int64, error) {
	page, in := off/storage.PageSize, off%storage.PageSize
	if page != c.page {
		data, err := c.ix.pool.ReadPage(c.ix.path, c.ix.f, page)
		if err != nil {
			return 0, err
		}
		c.page, c.data = page, data
	}
	if in+8 > int64(len(c.data)) {
		return 0, fmt.Errorf("page %d holds %d bytes, need %d", page, len(c.data), in+8)
	}
	return int64(binary.LittleEndian.Uint64(c.data[in:])), nil
}

func (c *cursor) entry(i int64) (Entry, error) {
	var w [3]int64
	for k := range w {
		var err error
		if w[k], err = c.word(i*EntrySize + int64(k)*8); err != nil {
			return Entry{}, fmt.Errorf("index: read entry %d of %s: %w", i, c.ix.path, err)
		}
	}
	return Entry{A: w[0], B: w[1], RowID: w[2]}, nil
}

// lowerBound returns the first position whose entry is >= (a, b) under
// (A, B) ordering with RowID ignored (pass math.MinInt64 semantics via b).
func (c *cursor) lowerBound(a, b int64) (int64, error) {
	var outerErr error
	pos := int64(sort.Search(int(c.ix.n), func(i int) bool {
		if outerErr != nil {
			return true
		}
		e, err := c.entry(int64(i))
		if err != nil {
			outerErr = err
			return true
		}
		if e.A != a {
			return e.A > a
		}
		return e.B >= b
	}))
	return pos, outerErr
}

// scan returns the rowIDs of the run of entries that starts at the first
// entry >= (a, b) and lasts while in holds. They overwrite dst's contents
// and reuse its backing array when it has room.
func (ix *Index) scan(a, b int64, dst []int64, in func(Entry) bool) ([]int64, error) {
	c := ix.cursor()
	pos, err := c.lowerBound(a, b)
	if err != nil {
		return nil, err
	}
	out := dst[:0]
	for ; pos < ix.n; pos++ {
		e, err := c.entry(pos)
		if err != nil {
			return nil, err
		}
		if !in(e) {
			break
		}
		out = append(out, e.RowID)
	}
	return out, nil
}

const minB = -1 << 63

// Lookup returns the rowIDs of all entries with key exactly (a, b), in
// rowID order. A caller that probes repeatedly passes its previous
// result back, as in rows, err = ix.Lookup(a, b, rows...): the rowIDs
// overwrite it and reuse its backing array when it has room.
func (ix *Index) Lookup(a, b int64, dst ...int64) ([]int64, error) {
	return ix.scan(a, b, dst, func(e Entry) bool { return e.A == a && e.B == b })
}

// LookupA returns the rowIDs of all entries whose first key equals a,
// regardless of B (prefix lookup, used for single-column FK joins). dst
// is reused as in Lookup.
func (ix *Index) LookupA(a int64, dst ...int64) ([]int64, error) {
	return ix.scan(a, minB, dst, func(e Entry) bool { return e.A == a })
}

// RangeA returns the rowIDs of all entries with lo <= A <= hi, used for
// range predicates on sorted numeric/time keys. dst is reused as in
// Lookup.
func (ix *Index) RangeA(lo, hi int64, dst ...int64) ([]int64, error) {
	return ix.scan(lo, minB, dst, func(e Entry) bool { return e.A <= hi })
}

// Unique reports whether every key (A, B) appears at most once; primary
// key indexes must be unique and ingestion validates this invariant.
func (ix *Index) Unique() (bool, error) {
	c := ix.cursor()
	var prev Entry
	for i := int64(0); i < ix.n; i++ {
		e, err := c.entry(i)
		if err != nil {
			return false, err
		}
		if i > 0 && e.A == prev.A && e.B == prev.B {
			return false, nil
		}
		prev = e
	}
	return true, nil
}
