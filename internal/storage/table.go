package storage

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/vector"
)

// Column describes one column of a stored table.
type Column struct {
	Name string      `json:"name"`
	Kind vector.Kind `json:"kind"`
}

// tableMeta is the persisted form of a table's schema.
type tableMeta struct {
	Name    string   `json:"name"`
	Columns []Column `json:"columns"`
	Rows    int64    `json:"rows"`
}

// Table is a disk-backed column table. All reads go through the owning
// store's buffer pool so cold/hot behaviour is observable.
type Table struct {
	store *Store
	name  string
	dir   string
	paths []string // column file paths, by column

	mu    sync.RWMutex
	cols  []Column
	rows  int64
	dicts []*Dict    // per column; nil unless VARCHAR
	files []*os.File // open read handles, by column; nil until a read opens one
}

// newTable returns the table name of s with the given schema, each
// column's file path computed once.
func (s *Store) newTable(name string, cols []Column, rows int64) *Table {
	t := &Table{
		store: s,
		name:  name,
		dir:   filepath.Join(s.dir, name),
		cols:  cols,
		paths: make([]string, len(cols)),
		rows:  rows,
		dicts: make([]*Dict, len(cols)),
		files: make([]*os.File, len(cols)),
	}
	for i, c := range cols {
		t.paths[i] = filepath.Join(t.dir, c.Name+".col")
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Columns returns a copy of the table's column descriptors.
func (t *Table) Columns() []Column {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Column, len(t.cols))
	copy(out, t.cols)
	return out
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i, c := range t.cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Rows returns the current row count.
func (t *Table) Rows() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// Dict returns the dictionary of a VARCHAR column (nil otherwise).
func (t *Table) Dict(col int) *Dict {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.dicts[col]
}

func (t *Table) dictPath(i int) string {
	return filepath.Join(t.dir, t.cols[i].Name+".dict.json")
}

func (t *Table) metaPath() string { return filepath.Join(t.dir, "schema.json") }

func (t *Table) saveMeta() error {
	meta := tableMeta{Name: t.name, Columns: t.cols, Rows: t.rows}
	data, err := json.MarshalIndent(meta, "", " ")
	if err != nil {
		return fmt.Errorf("storage: marshal schema: %w", err)
	}
	return os.WriteFile(t.metaPath(), data, 0o644)
}

// open returns the read handle of column col, opening it if no read has
// yet: the write lock is taken only to open it.
func (t *Table) open(col int) (*os.File, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f := t.files[col]; f != nil {
		return f, nil
	}
	f, err := os.Open(t.paths[col])
	if err != nil {
		return nil, err
	}
	t.files[col] = f
	return f, nil
}

// closeFileLocked closes the read handle of column col, if open.
func (t *Table) closeFileLocked(col int) {
	if f := t.files[col]; f != nil {
		f.Close()
		t.files[col] = nil
	}
}

// ReadColumn reads rows [from, to) of column col through the buffer
// pool. Each page is decoded at most once while it stays resident; the
// result is a frozen copy-on-write share of that decoded chunk when the
// range lies in one page (the first write through it copies), else a
// fresh concatenation of the per-page shares.
func (t *Table) ReadColumn(col int, from, to int64) (*vector.Vector, error) {
	t.mu.RLock()
	kind := t.cols[col].Kind
	rows, dict, f := t.rows, t.dicts[col], t.files[col]
	t.mu.RUnlock()
	if from < 0 || to > rows || from > to {
		return nil, fmt.Errorf("storage: read rows [%d,%d) of %s.%s with %d rows",
			from, to, t.name, t.cols[col].Name, rows)
	}
	if from == to {
		return vector.New(kind, 0), nil
	}
	if f == nil {
		var err error
		if f, err = t.open(col); err != nil {
			return nil, err
		}
	}
	path := t.paths[col]
	decode := func(raw []byte) (*vector.Vector, error) { return decodePage(kind, raw, dict) }
	// A page holds a whole number of values: PageSize is a multiple of
	// every width.
	per := PageSize / int64(diskWidth(kind))
	var one [1]*vector.Vector // a one-page read, the common case, allocates no slice
	parts := one[:0]
	for page := from / per; page*per < to; page++ {
		chunk, err := t.store.pool.ReadChunk(path, f, page, decode)
		if err != nil {
			return nil, fmt.Errorf("storage: read %s.%s: %w", t.name, t.cols[col].Name, err)
		}
		base := page * per
		lo, hi := max(from, base)-base, min(to, base+per)-base
		if hi > int64(chunk.Len()) {
			return nil, fmt.Errorf("storage: read %s.%s: page %d holds %d values, need %d",
				t.name, t.cols[col].Name, page, chunk.Len(), hi)
		}
		parts = append(parts, chunk.Slice(int(lo), int(hi)))
	}
	return concat(parts), nil
}

// concat returns parts (at least one, of one kind) as one vector: the
// part itself when there is one, else a fresh vector.Concat of them.
func concat(parts []*vector.Vector) *vector.Vector {
	if len(parts) == 1 {
		return parts[0]
	}
	bs := make([]*vector.Batch, len(parts))
	for i, p := range parts {
		bs[i] = vector.NewBatch(p)
	}
	return vector.Concat(bs).Cols[0]
}

// ReadBatch reads rows [from, to) of the given columns. Its columns are
// frozen shares of the pool's decoded pages (see ReadColumn): readers may
// mutate them, and the first write copies.
func (t *Table) ReadBatch(cols []int, from, to int64) (*vector.Batch, error) {
	out := make([]*vector.Vector, len(cols))
	for i, c := range cols {
		v, err := t.ReadColumn(c, from, to)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return vector.NewBatch(out...), nil
}

// ReadRowsAt gathers the values of the given columns at arbitrary row
// positions (point access, as an index lookup would do). Column by
// column, it reads each maximal run of consecutive row IDs as one
// ReadColumn range, so every column file sees the page sequence a
// row-at-a-time read would, and concatenates the runs when there is more
// than one. It does not retain rowIDs: callers may reuse the slice.
func (t *Table) ReadRowsAt(cols []int, rowIDs []int64) (*vector.Batch, error) {
	var runs [][2]int64
	for lo := 0; lo < len(rowIDs); {
		hi := lo + 1
		for hi < len(rowIDs) && rowIDs[hi] == rowIDs[hi-1]+1 {
			hi++
		}
		runs = append(runs, [2]int64{rowIDs[lo], rowIDs[hi-1] + 1})
		lo = hi
	}
	if len(runs) == 0 {
		runs = append(runs, [2]int64{0, 0}) // no rows still yields typed, empty columns
	}
	out := make([]*vector.Vector, len(cols))
	parts := make([]*vector.Vector, len(runs))
	for i, c := range cols {
		for j, r := range runs {
			v, err := t.ReadColumn(c, r[0], r[1])
			if err != nil {
				return nil, err
			}
			parts[j] = v
		}
		out[i] = concat(parts)
	}
	return vector.NewBatch(out...), nil
}

// SizeOnDisk returns the total bytes of this table's column files and
// dictionaries.
func (t *Table) SizeOnDisk() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var total int64
	for i := range t.cols {
		if st, err := os.Stat(t.paths[i]); err == nil {
			total += st.Size()
		}
		if t.dicts[i] != nil {
			if st, err := os.Stat(t.dictPath(i)); err == nil {
				total += st.Size()
			}
		}
	}
	return total
}

// Truncate removes all rows, keeping the schema.
func (t *Table) Truncate() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, path := range t.paths {
		t.closeFileLocked(i)
		if err := os.Truncate(path, 0); err != nil && !os.IsNotExist(err) {
			return err
		}
		t.store.pool.Invalidate(path)
		if t.dicts[i] != nil {
			t.dicts[i] = NewDict()
		}
	}
	t.rows = 0
	return t.saveMeta()
}

func (t *Table) closeHandles() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.files {
		t.closeFileLocked(i)
	}
}

// Appender buffers rows and writes them to the table's column files.
// It is not safe for concurrent use. Close must be called to persist the
// row count and dictionaries.
type Appender struct {
	t       *Table
	writers []*bufio.Writer
	files   []*os.File
	scratch []byte
	rows    int64
	closed  bool
}

// NewAppender opens the table's column files for appending.
func (t *Table) NewAppender() (*Appender, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := &Appender{t: t}
	for _, path := range t.paths {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			for _, prev := range a.files {
				prev.Close()
			}
			return nil, fmt.Errorf("storage: open %s for append: %w", path, err)
		}
		a.files = append(a.files, f)
		a.writers = append(a.writers, bufio.NewWriterSize(f, 1<<20))
	}
	return a, nil
}

// Append writes one batch whose columns must match the table schema in
// order and kind (VARCHAR accepts string vectors; TIMESTAMP accepts
// BIGINT and vice versa). Append only reads the batch and retains no
// reference to it: callers may pass copy-on-write shares and reuse or
// truncate their buffers as soon as Append returns (ingest's row
// buffers do exactly that).
func (a *Appender) Append(b *vector.Batch) error {
	if a.closed {
		return fmt.Errorf("storage: append on closed appender")
	}
	a.t.mu.RLock()
	cols := a.t.cols
	dicts := a.t.dicts
	a.t.mu.RUnlock()
	if b.NumCols() != len(cols) {
		return fmt.Errorf("storage: append %d columns to table %s with %d", b.NumCols(), a.t.name, len(cols))
	}
	for i, v := range b.Cols {
		want := cols[i].Kind
		got := v.Kind()
		timeCompat := (want == vector.KindTime && got == vector.KindInt64) ||
			(want == vector.KindInt64 && got == vector.KindTime)
		if got != want && !timeCompat {
			return fmt.Errorf("storage: column %s kind %s, batch has %s", cols[i].Name, want, got)
		}
		a.scratch = a.scratch[:0]
		if want == vector.KindString {
			var buf [8]byte
			for _, s := range v.Strings() {
				binary.LittleEndian.PutUint64(buf[:], uint64(dicts[i].Code(s)))
				a.scratch = append(a.scratch, buf[:]...)
			}
		} else {
			a.scratch = encodeVector(a.scratch, v)
		}
		if _, err := a.writers[i].Write(a.scratch); err != nil {
			return fmt.Errorf("storage: write column %s: %w", cols[i].Name, err)
		}
	}
	a.rows += int64(b.Len())
	return nil
}

// Close flushes the writers, charges the modeled write cost, persists
// dictionaries and row counts, and invalidates stale cached pages.
func (a *Appender) Close() error {
	if a.closed {
		return nil
	}
	a.closed = true
	t := a.t
	var written int64
	for i, w := range a.writers {
		if err := w.Flush(); err != nil {
			return fmt.Errorf("storage: flush column %s: %w", t.cols[i].Name, err)
		}
		if st, err := a.files[i].Stat(); err == nil {
			written += st.Size()
		}
		a.files[i].Close()
	}
	t.store.pool.Model().ChargeWrite(t.store.pool.Clock(), written)
	t.mu.Lock()
	t.rows += a.rows
	t.mu.Unlock()
	for i, path := range t.paths {
		t.store.pool.Invalidate(path)
		t.mu.Lock()
		t.closeFileLocked(i)
		t.mu.Unlock()
		if t.dicts[i] != nil {
			if err := t.dicts[i].Save(t.dictPath(i)); err != nil {
				return err
			}
		}
	}
	return t.saveMeta()
}
