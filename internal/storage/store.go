package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Store manages the tables of one database directory. All tables share
// one buffer pool (and therefore one disk model and virtual clock).
type Store struct {
	dir  string
	pool *BufferPool

	mu     sync.RWMutex
	tables map[string]*Table
}

// Open opens (or creates) a database directory. Existing tables are
// discovered from their schema.json files.
func Open(dir string, pool *BufferPool) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create db dir: %w", err)
	}
	s := &Store{dir: dir, pool: pool, tables: make(map[string]*Table)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		metaPath := filepath.Join(dir, e.Name(), "schema.json")
		data, err := os.ReadFile(metaPath)
		if err != nil {
			continue // not a table directory
		}
		var meta tableMeta
		if err := json.Unmarshal(data, &meta); err != nil {
			return nil, fmt.Errorf("storage: corrupt schema %s: %w", metaPath, err)
		}
		t, err := s.attach(meta)
		if err != nil {
			return nil, err
		}
		s.tables[t.name] = t
	}
	return s, nil
}

// Dir returns the database directory.
func (s *Store) Dir() string { return s.dir }

// Pool returns the shared buffer pool.
func (s *Store) Pool() *BufferPool { return s.pool }

func (s *Store) attach(meta tableMeta) (*Table, error) {
	t := s.newTable(meta.Name, meta.Columns, meta.Rows)
	for i, c := range meta.Columns {
		if c.Kind.Width() == 0 && !c.Kind.Fixed() {
			d, err := LoadDict(t.dictPath(i))
			if errors.Is(err, fs.ErrNotExist) {
				d = NewDict()
			} else if err != nil {
				return nil, err
			}
			t.dicts[i] = d
		}
	}
	return t, nil
}

// Create makes a new empty table. It fails if the name is taken.
func (s *Store) Create(name string, cols []Column) (*Table, error) {
	if name == "" || len(cols) == 0 {
		return nil, fmt.Errorf("storage: create table needs a name and columns")
	}
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		if seen[c.Name] {
			return nil, fmt.Errorf("storage: duplicate column %q in table %s", c.Name, name)
		}
		seen[c.Name] = true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; ok {
		return nil, fmt.Errorf("storage: table %s already exists", name)
	}
	t := s.newTable(name, append([]Column(nil), cols...), 0)
	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		return nil, err
	}
	for i, c := range cols {
		if c.Kind.Width() == 0 && !c.Kind.Fixed() {
			t.dicts[i] = NewDict()
		}
		// Ensure the column file exists so a freshly created table can be
		// scanned before its first append.
		f, err := os.OpenFile(t.paths[i], os.O_CREATE, 0o644)
		if err != nil {
			return nil, err
		}
		f.Close()
	}
	if err := t.saveMeta(); err != nil {
		return nil, err
	}
	s.tables[name] = t
	return t, nil
}

// Table looks up a table by name.
func (s *Store) Table(name string) (*Table, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[name]
	return t, ok
}

// MustTable looks up a table and panics if absent; for internal callers
// whose schema is fixed at engine initialization.
func (s *Store) MustTable(name string) *Table {
	t, ok := s.Table(name)
	if !ok {
		panic(fmt.Sprintf("storage: missing table %s", name))
	}
	return t
}

// Tables returns the names of all tables, sorted.
func (s *Store) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Drop removes a table and its files.
func (s *Store) Drop(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[name]
	if !ok {
		return fmt.Errorf("storage: drop of unknown table %s", name)
	}
	t.closeHandles()
	for _, path := range t.paths {
		s.pool.Invalidate(path)
	}
	delete(s.tables, name)
	return os.RemoveAll(t.dir)
}

// SizeOnDisk returns the total bytes of all tables.
func (s *Store) SizeOnDisk() int64 {
	s.mu.RLock()
	names := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		names = append(names, t)
	}
	s.mu.RUnlock()
	var total int64
	for _, t := range names {
		total += t.SizeOnDisk()
	}
	return total
}

// Close releases all open file handles.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.tables {
		t.closeHandles()
	}
	return nil
}
