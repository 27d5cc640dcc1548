// Package cache implements the ingestion cache for data mounted by ALi:
// "data of the mounted files might be cached depending on the cache
// policy" (paper §3). Two granularities are supported, mirroring the
// paper's open question:
//
//   - File granularity: the whole mounted file is cached; any later query
//     touching the file is served from memory.
//   - Tuple granularity: only the tuples inside the mounting query's
//     span (the closed interval its selection places on the data-span
//     column) are cached, together with that span; a later query is
//     served from cache only if its span is contained — otherwise the
//     whole file must be mounted again (exactly the trade-off the paper
//     describes).
//
// The cache has one writer and one protocol: a mount flight reserves the
// URI (BeginPut), streams every batch it extracts through Append, and
// publishes at Commit — or Abort, when the flight is abandoned or fails.
// The cache alone decides which rows a fill keeps, and an entry is the
// list of batches it kept, never a concatenated copy. Drop and Clear win
// over a reservation: a URI invalidated mid-stream is not resurrected.
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
	pending map[string]*Pending       // reserved fills, by URI
	hits    int64
	misses  int64
	evicted int64
	// onInvalidate runs (outside the lock) after Drop or Clear: both mean
	// "the underlying data may have changed", the signal layers above —
	// the engine's result cache — use to bump their invalidation epoch.
	onInvalidate func()
}

type entry struct {
	batches []*vector.Batch // frozen; cost is the sum of their Bytes
	span    Span
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

// Get returns copy-on-write shares of the cached batches for uri, in
// file order, if the entry covers the needed span (a tuple entry may
// hold no batch at all: its span had no rows). The shares are O(1):
// consumers read the entry's storage directly and may mutate their
// shares freely — the first write materializes a private copy, so the
// entry can never be corrupted.
func (m *Manager) Get(uri string, need Span) ([]*vector.Batch, bool) {
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
	out := make([]*vector.Batch, len(e.batches))
	for i, b := range e.batches {
		out[i] = b.Share()
	}
	return out, true
}

// Pending is an in-progress streaming insertion started by BeginPut: the
// entry is assembled batch by batch while a file is being mounted, and
// becomes visible atomically at Commit. The entry is the list of batches
// Append kept — frozen copy-on-write shares of the mounted batches, or,
// under tuple granularity, the gathered rows of a batch the span cuts —
// so Commit copies nothing, and the finished entry can never observe
// mutations made through the mount's own handles. All methods are
// nil-safe (a nil Pending ignores every call), letting callers thread
// the result of BeginPut through unconditionally.
type Pending struct {
	m       *Manager
	uri     string
	span    Span
	col     int // the span column's position; < 0 keeps every row
	batches []*vector.Batch
	bytes   int64
	// aborted is set (under the manager lock) by Abort, or by Drop/Clear
	// racing the stream: a URI invalidated mid-flight must not be
	// resurrected by Commit.
	aborted bool
}

// BeginPut reserves uri for a streaming insertion of a mount over span,
// whose batches hold the span column at position col (< 0 for a format
// without one). The cache alone decides what the entry keeps: under file
// granularity every row, under FullSpan; under tuple granularity the
// rows whose span column lies in span. It returns nil when the manager
// never caches or another streaming insertion already holds the
// reservation — the reservation is what keeps one file being mounted
// from being double-inserted. The reservation is released by Commit or
// Abort.
func (m *Manager) BeginPut(uri string, span Span, col int) *Pending {
	if m == nil || m.cfg.Policy == NeverCache {
		return nil
	}
	if m.cfg.Granularity == FileGranular || span.Full {
		span, col = FullSpan(), -1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pending[uri] != nil {
		return nil
	}
	p := &Pending{m: m, uri: uri, span: span, col: col}
	m.pending[uri] = p
	return p
}

// Append adds the rows of b the entry keeps. Once the insertion is
// aborted (directly, or by Drop/Clear racing the stream) appends become
// no-ops rather than accumulating rows Commit will discard anyway.
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
	if b = p.keep(b); b != nil {
		b.Freeze()
		p.batches = append(p.batches, b)
		p.bytes += b.Bytes()
	}
}

// keep returns the entry's own handle on the rows of b inside the span:
// a share when that is every row, a gathered copy when it is some, and
// nil when it is none.
func (p *Pending) keep(b *vector.Batch) *vector.Batch {
	if p.col < 0 {
		return b.Share()
	}
	ts := b.Cols[p.col].Int64s()
	sel := make([]int, 0, len(ts))
	for i, t := range ts {
		if p.span.Lo <= t && t <= p.span.Hi {
			sel = append(sel, i)
		}
	}
	switch len(sel) {
	case 0:
		return nil
	case len(ts):
		return b.Share()
	}
	return b.Gather(sel)
}

// Commit publishes the kept batches as the entry and releases the
// reservation. A full-span insertion that kept no batch commits nothing
// (the file had no rows), while a bounded one publishes its empty entry:
// it proves the span has none. One whose URI was dropped or cleared
// mid-stream commits nothing either — the invalidation wins.
func (p *Pending) Commit() {
	if p == nil {
		return
	}
	m := p.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if p.aborted {
		return
	}
	delete(m.pending, p.uri)
	if len(p.batches) > 0 || !p.span.Full {
		m.entries.Put(p.uri, &entry{batches: p.batches, span: p.span}, p.bytes)
		m.entries.Evict(func(string, *entry) { m.evicted++ })
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
