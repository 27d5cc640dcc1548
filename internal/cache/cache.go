// Package cache implements the ingestion cache for data mounted by ALi:
// "data of the mounted files might be cached depending on the cache
// policy" (paper §3). Two granularities are supported, mirroring the
// paper's open question:
//
//   - File granularity: the whole mounted file is cached; any later query
//     touching the file is served from memory.
//   - Tuple granularity: only the tuples that satisfied the mounting
//     query's selection are cached, together with the span they cover;
//     a later query is served from cache only if its span is contained —
//     otherwise the whole file must be mounted again (exactly the
//     trade-off the paper describes).
//
// Policies control retention: NeverCache reproduces the paper's
// preliminary setup ("ingested data is discarded as soon as the query
// has been evaluated"), LRU bounds memory use.
package cache

import (
	"sync"

	"repro/internal/lru"
	"repro/internal/vector"
)

// Policy selects the retention strategy.
type Policy int

// Retention policies.
const (
	// NeverCache discards mounted data after every query (the paper's
	// preliminary evaluation setting: inherently up-to-date data).
	NeverCache Policy = iota
	// LRU keeps the most recently used entries within the byte budget.
	LRU
)

func (p Policy) String() string {
	return [...]string{"never", "lru"}[p]
}

// Granularity selects what is stored per entry.
type Granularity int

// Cache granularities (paper §3, run-time optimization discussion).
const (
	FileGranular Granularity = iota
	TupleGranular
)

func (g Granularity) String() string {
	if g == FileGranular {
		return "file"
	}
	return "tuple"
}

// Span is the closed interval of the data-span column covered by an
// entry or required by a query. Full means "the whole file".
type Span struct {
	Lo, Hi int64
	Full   bool
}

// FullSpan covers everything.
func FullSpan() Span { return Span{Full: true} }

// Contains reports whether s covers need.
func (s Span) Contains(need Span) bool {
	if s.Full {
		return true
	}
	if need.Full {
		return false
	}
	return s.Lo <= need.Lo && need.Hi <= s.Hi
}

// Config parameterizes a Manager.
type Config struct {
	Policy      Policy
	Granularity Granularity
	// MaxBytes bounds resident cache size; <=0 means unlimited (only
	// meaningful with LRU).
	MaxBytes int64
}

// Stats reports cache activity.
type Stats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	BytesResident int64
	Entries       int
}

// Manager is the ingestion cache. It is safe for concurrent use.
type Manager struct {
	cfg Config

	mu      sync.Mutex
	entries *lru.List[string, *entry] // by URI, each costing its bytes
	pending map[string]*Pending       // in-progress streaming Puts, by URI
	hits    int64
	misses  int64
	evicted int64
	// onInvalidate runs (outside the lock) after Drop or Clear: both mean
	// "the underlying data may have changed", the signal layers above —
	// the engine's result cache — use to bump their invalidation epoch.
	onInvalidate func()
}

type entry struct {
	batch *vector.Batch
	span  Span
}

// New returns a manager with the given configuration.
func New(cfg Config) *Manager {
	return &Manager{
		cfg:     cfg,
		entries: lru.New[string, *entry](cfg.MaxBytes),
		pending: make(map[string]*Pending),
	}
}

// Config returns the manager's configuration.
func (m *Manager) Config() Config { return m.cfg }

// SetOnInvalidate registers fn to run after every Drop or Clear — the
// two operations that signal the underlying data changed (an eviction by
// byte budget does not: the repository files are still what they were).
// fn is invoked outside the manager lock and must be safe for concurrent
// use.
func (m *Manager) SetOnInvalidate(fn func()) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.onInvalidate = fn
	m.mu.Unlock()
}

// Contains reports whether a query needing the given span of uri can be
// served from cache. This drives rewrite rule (1)'s f ∈ C test.
func (m *Manager) Contains(uri string, need Span) bool {
	if m == nil || m.cfg.Policy == NeverCache {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries.Peek(uri)
	return ok && e.span.Contains(need)
}

// Get returns a copy-on-write share of the cached batch for uri if it
// covers the needed span. The share is O(1): consumers read the entry's
// storage directly and may mutate their share freely — the first write
// materializes a private copy, so the entry can never be corrupted.
func (m *Manager) Get(uri string, need Span) (*vector.Batch, bool) {
	if m == nil || m.cfg.Policy == NeverCache {
		return nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries.Peek(uri)
	if !ok || !e.span.Contains(need) {
		m.misses++
		return nil, false
	}
	m.entries.Get(uri)
	m.hits++
	return e.batch.Share(), true
}

// Put stores mounted data. With FileGranular configuration the span is
// forced to Full (callers pass the whole mounted file); TupleGranular
// callers pass the filtered batch and the span its tuples cover. A
// NeverCache manager ignores Put, as does a Put racing a streaming
// insertion that holds the URI's reservation (the stream owns the
// entry; a second insert would double-count it).
func (m *Manager) Put(uri string, b *vector.Batch, span Span) {
	if m == nil || m.cfg.Policy == NeverCache || b == nil {
		return
	}
	if m.cfg.Granularity == FileGranular {
		span = FullSpan()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pending[uri] != nil {
		return
	}
	m.putLocked(uri, b, span)
}

// putLocked inserts an entry; callers hold the lock. The entry holds its
// own frozen share of b: the caller keeps mutating its handle without
// affecting the entry, and no later handle mistake can corrupt it.
func (m *Manager) putLocked(uri string, b *vector.Batch, span Span) {
	stored := b.Share()
	stored.Freeze()
	m.entries.Put(uri, &entry{batch: stored, span: span}, stored.Bytes())
	m.entries.Evict(func(string, *entry) { m.evicted++ })
}

// Pending is an in-progress streaming insertion started by BeginPut: the
// entry is assembled batch by batch while a file is being mounted, and
// becomes visible atomically at Commit. Append keeps copy-on-write
// shares, and Commit concatenates them once (vector.Concat, outside the
// manager lock): a single-batch file is adopted in O(1), and the
// finished entry can never observe execution-side mutations either way.
// All methods are nil-safe (a nil Pending ignores every call), letting
// callers thread the result of BeginPut through unconditionally.
type Pending struct {
	m       *Manager
	uri     string
	batches []*vector.Batch
	// aborted is set (under the manager lock) by Abort, or by Drop/Clear
	// racing the stream: a URI invalidated mid-flight must not be
	// resurrected by Commit.
	aborted bool
}

// BeginPut reserves uri for a streaming insertion. It returns nil when
// the manager never caches or another streaming insertion already holds
// the reservation — the reservation is what keeps one file being
// mounted from being double-inserted. The reservation is released by
// Commit or Abort.
func (m *Manager) BeginPut(uri string) *Pending {
	if m == nil || m.cfg.Policy == NeverCache {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pending[uri] != nil {
		return nil
	}
	p := &Pending{m: m, uri: uri}
	m.pending[uri] = p
	return p
}

// Append adds a batch's rows to the pending entry as an O(1) share.
// Once the insertion is aborted (directly, or by Drop/Clear racing the
// stream) appends become no-ops rather than accumulating rows Commit
// will discard anyway.
func (p *Pending) Append(b *vector.Batch) {
	if p == nil || b == nil || b.Len() == 0 {
		return
	}
	p.m.mu.Lock()
	aborted := p.aborted
	p.m.mu.Unlock()
	if aborted {
		p.batches = nil
		return
	}
	p.batches = append(p.batches, b.Share())
}

// Commit publishes the assembled entry under the given span and releases
// the reservation. A pending insertion that never saw a batch commits
// nothing (the file had no rows to retain), and one whose URI was
// dropped or cleared mid-stream commits nothing either — the
// invalidation wins.
func (p *Pending) Commit(span Span) {
	if p == nil {
		return
	}
	m := p.m
	if m.cfg.Granularity == FileGranular {
		span = FullSpan()
	}
	var b *vector.Batch
	if len(p.batches) > 0 {
		b = vector.Concat(p.batches)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if p.aborted {
		return
	}
	delete(m.pending, p.uri)
	if b != nil {
		m.putLocked(p.uri, b, span)
	}
}

// Abort discards the pending entry and releases the reservation.
func (p *Pending) Abort() {
	if p == nil {
		return
	}
	p.m.mu.Lock()
	defer p.m.mu.Unlock()
	if !p.aborted {
		p.aborted = true
		delete(p.m.pending, p.uri)
	}
	p.batches = nil
}

// Drop removes one entry (e.g. when the underlying file changed). A
// streaming insertion in progress for the URI is invalidated too: its
// Commit becomes a no-op, so dropped data cannot be resurrected.
func (m *Manager) Drop(uri string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if p, ok := m.pending[uri]; ok {
		p.aborted = true
		delete(m.pending, uri)
	}
	m.entries.Remove(uri)
	fn := m.onInvalidate
	m.mu.Unlock()
	// Drop means "this file changed" whether or not it was resident:
	// layers above must hear about it either way.
	if fn != nil {
		fn()
	}
}

// Clear empties the cache and invalidates in-progress streaming
// insertions: a flight racing the clear must not repopulate it.
func (m *Manager) Clear() {
	if m == nil {
		return
	}
	m.mu.Lock()
	for _, p := range m.pending {
		p.aborted = true
	}
	m.pending = make(map[string]*Pending)
	m.entries.Clear()
	fn := m.onInvalidate
	m.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// Stats returns a snapshot of cache counters.
func (m *Manager) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Hits: m.hits, Misses: m.misses, Evictions: m.evicted,
		BytesResident: m.entries.Cost(), Entries: m.entries.Len(),
	}
}
