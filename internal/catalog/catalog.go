// Package catalog holds the engine's schema: the set of tables T,
// partitioned into metadata tables M and actual-data tables A (the paper's
// T = M ∪ A), plus the registry of format adapters that map external
// scientific file formats onto that schema.
//
// The adapter interface is the paper's "generalized medium for the
// scientific developer": a domain expert defines format-specific metadata
// extraction and mounting once, and the two-stage machinery works
// unchanged for any format (internal/mseed and internal/csvfmt both plug
// in here).
package catalog

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/storage"
	"repro/internal/vector"
)

// TableKind classifies a table as metadata (loaded eagerly) or actual
// data (ingested lazily by ALi, or eagerly by the Ei baseline).
type TableKind int

const (
	// Metadata tables hold self-descriptive measurements about files and
	// records; they are small and always loaded up-front.
	Metadata TableKind = iota
	// ActualData tables hold the big payloads (time series, images,
	// sequences); under ALi they are populated per query.
	ActualData
)

// String names the kind.
func (k TableKind) String() string {
	if k == Metadata {
		return "metadata"
	}
	return "actual-data"
}

// TableDef describes one table of the schema.
type TableDef struct {
	Name    string
	Kind    TableKind
	Columns []storage.Column
}

// ColumnIndex returns the position of the named column, or -1.
func (d TableDef) ColumnIndex(name string) int {
	for i, c := range d.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Catalog is the schema registry. It is safe for concurrent reads after
// setup.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]TableDef
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]TableDef)}
}

// Define registers a table definition.
func (c *Catalog) Define(def TableDef) error {
	if def.Name == "" || len(def.Columns) == 0 {
		return fmt.Errorf("catalog: table definition needs a name and columns")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[def.Name]; ok {
		return fmt.Errorf("catalog: table %s already defined", def.Name)
	}
	c.tables[def.Name] = def
	return nil
}

// Table returns the definition of the named table.
func (c *Catalog) Table(name string) (TableDef, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	def, ok := c.tables[name]
	return def, ok
}

// IsMetadata reports whether the named table is in M.
func (c *Catalog) IsMetadata(name string) bool {
	def, ok := c.Table(name)
	return ok && def.Kind == Metadata
}

// Tables returns all table names, sorted.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// MetadataTables returns the names of the tables in M, sorted.
func (c *Catalog) MetadataTables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []string
	for n, d := range c.tables {
		if d.Kind == Metadata {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// FileMeta is one row of a format's file-level metadata table, paired
// with the values in the order of the table definition.
type FileMeta struct {
	URI    string
	Values []vector.Value
}

// RecordMeta is one row of a format's record-level metadata table.
type RecordMeta struct {
	URI      string
	RecordID int64
	Values   []vector.Value
}

// FormatAdapter maps one external file format onto the relational schema.
// Implementations must be safe for concurrent use.
type FormatAdapter interface {
	// Name identifies the format (e.g. "mseed", "csv").
	Name() string
	// Tables returns the file-level metadata, record-level metadata and
	// actual-data table definitions this format populates.
	Tables() (file, record, data TableDef)
	// URIColumn is the column name (present in all three tables) that
	// carries the file URI; RecordIDColumn (present in record and data
	// tables) carries the record identity.
	URIColumn() string
	RecordIDColumn() string
	// ExtractMetadata reads ONLY metadata from the file at path: its
	// file-level row and one row per record. No actual data may be
	// decoded; this is the cheap first-stage primitive.
	ExtractMetadata(path, uri string) (FileMeta, []RecordMeta, error)
	// Mount extracts, transforms and returns the actual-data rows of the
	// file as a batch matching the data table definition. When keep is
	// non-nil, records whose metadata fails it may be skipped without
	// decoding (the fused σ∘mount access path).
	Mount(path, uri string, keep func(RecordMeta) bool) (*vector.Batch, error)
	// MountStream is the streaming form of Mount: instead of
	// materializing the whole file it yields batches of rows through
	// emit, in file order, as extraction progresses. Batches are
	// record-aligned — a batch never splits one record's rows — and hold
	// at most batchRows rows except when a single record alone exceeds
	// that (record alignment wins). batchRows <= 0 selects
	// vector.DefaultBatchSize. A non-nil error from emit aborts the
	// extraction and is returned unchanged.
	MountStream(path, uri string, keep func(RecordMeta) bool, batchRows int, emit func(*vector.Batch) error) error
	// DataSpanColumn names the data-table column (typically a TIMESTAMP)
	// whose values are bounded by each record's span, enabling record
	// pruning inside σ∘mount. Empty if the format has no such column.
	DataSpanColumn() string
	// RecordSpan returns the [lo, hi] bounds of DataSpanColumn within one
	// record, and whether the bounds are known.
	RecordSpan(rm RecordMeta) (lo, hi int64, ok bool)
}

// CollectMount drains an adapter's MountStream into a single batch: the
// materializing Mount behaviour, shared by adapter implementations so
// the two entry points cannot diverge.
func CollectMount(a FormatAdapter, path, uri string, keep func(RecordMeta) bool) (*vector.Batch, error) {
	var batches []*vector.Batch
	err := a.MountStream(path, uri, keep, int(^uint(0)>>1), func(b *vector.Batch) error {
		batches = append(batches, b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out *vector.Batch
	if len(batches) > 0 {
		out = vector.Concat(batches)
	} else {
		// No record survived: an empty batch with the data-table schema.
		_, _, data := a.Tables()
		cols := make([]*vector.Vector, len(data.Columns))
		for i, c := range data.Columns {
			cols[i] = vector.New(c.Kind, 0)
		}
		out = vector.NewBatch(cols...)
	}
	return out, nil
}

// AdapterRegistry holds the known format adapters.
type AdapterRegistry struct {
	mu       sync.RWMutex
	adapters map[string]FormatAdapter
}

// NewRegistry returns an empty adapter registry.
func NewRegistry() *AdapterRegistry {
	return &AdapterRegistry{adapters: make(map[string]FormatAdapter)}
}

// Register adds an adapter; duplicate names are an error.
func (r *AdapterRegistry) Register(a FormatAdapter) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.adapters[a.Name()]; ok {
		return fmt.Errorf("catalog: adapter %s already registered", a.Name())
	}
	r.adapters[a.Name()] = a
	return nil
}

// Get returns the named adapter.
func (r *AdapterRegistry) Get(name string) (FormatAdapter, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.adapters[name]
	return a, ok
}

// Names lists registered adapters, sorted.
func (r *AdapterRegistry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.adapters))
	for n := range r.adapters {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
