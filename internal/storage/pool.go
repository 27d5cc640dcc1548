package storage

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/lru"
	"repro/internal/vector"
)

// pageKey identifies a cached page: a file path plus a page index.
type pageKey struct {
	path string
	page int64
}

// PoolStats reports buffer-pool activity since creation (Flush keeps
// the counters).
type PoolStats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	SeeksPayed int64
}

// BufferPool caches fixed-size pages of column and index files in memory
// with LRU replacement. Every miss is charged to the pool's Clock using
// its DiskModel; a "cold" run starts from an empty pool, a "hot" run from
// a pre-warmed one — exactly the cold/hot protocol of the paper's
// Figure 3.
//
// A frame of a column file also keeps the page decoded (ReadChunk), so
// each page is decoded at most once while it stays resident. Capacity
// is still counted in pages, but a resident column page costs its bytes
// plus a chunk of the same size for fixed-width kinds, or twice the size
// for VARCHAR (16-byte string headers over the 8-byte codes). An index
// page keeps its bytes only (ReadPage). Touch reads no bytes at all: a
// page it charges holds its place in the pool, at cost 1, in a frame
// with no bytes.
type BufferPool struct {
	mu       sync.Mutex
	model    DiskModel
	clock    *Clock
	pages    *lru.List[pageKey, *poolEntry] // each page costs 1: the budget is the capacity
	lastPage map[string]int64
	stats    PoolStats
}

// poolEntry is one frame. A published frame is never mutated: readers
// use data without holding the pool's lock, so a frame is filled or
// refreshed by replacing it.
type poolEntry struct {
	data  []byte
	chunk atomic.Pointer[vector.Vector] // data decoded and frozen; nil until ReadChunk
}

// touchFrame is the frame Touch leaves for a page it charged: the page
// is resident in the model but holds no bytes. Every such page shares
// it, and getPage never returns it: a data read that finds it counts a
// hit, reads the page and replaces the frame.
var touchFrame = &poolEntry{}

// NewBufferPool returns a pool holding at most capPages pages. The clock
// may be nil, in which case no I/O time is modeled.
func NewBufferPool(capPages int, model DiskModel, clock *Clock) *BufferPool {
	if capPages < 1 {
		capPages = 1
	}
	return &BufferPool{
		model:    model,
		clock:    clock,
		pages:    lru.New[pageKey, *poolEntry](int64(capPages)),
		lastPage: make(map[string]int64),
	}
}

// Clock returns the pool's virtual I/O clock (may be nil).
func (p *BufferPool) Clock() *Clock { return p.clock }

// Model returns the pool's disk model.
func (p *BufferPool) Model() DiskModel { return p.model }

// Stats returns a snapshot of pool counters.
func (p *BufferPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Flush empties the pool (the "cold" protocol) and resets streak
// tracking. Counters are preserved.
func (p *BufferPool) Flush() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pages.Clear()
	p.lastPage = make(map[string]int64)
}

// ReadPage returns the bytes of page of path, going through the same
// hit, miss, seek and LRU accounting as ReadChunk. f must be an open
// handle on path. The slice is the resident frame's own and immutable:
// callers read it and never write it, and may keep reading it after the
// page leaves the pool. The last page of a file is short.
func (p *BufferPool) ReadPage(path string, f *os.File, page int64) ([]byte, error) {
	e, err := p.getPage(path, f, page)
	if err != nil {
		return nil, err
	}
	return e.data, nil
}

// ReadChunk returns page of path decoded by decode and frozen, going
// through the same hit, miss, seek and LRU accounting as ReadPage. The
// first read of a resident page decodes it; later reads get the same
// frozen chunk until the page leaves the pool (Flush, Invalidate or
// eviction drop the chunk with the page). Callers hand out Slice/Share
// handles of it, never the chunk itself. decode runs outside the pool's
// lock; when two readers decode the same page at once, the first chunk
// stored wins.
func (p *BufferPool) ReadChunk(path string, f *os.File, page int64, decode func([]byte) (*vector.Vector, error)) (*vector.Vector, error) {
	e, err := p.getPage(path, f, page)
	if err != nil {
		return nil, err
	}
	if c := e.chunk.Load(); c != nil {
		return c, nil
	}
	c, err := decode(e.data)
	if err != nil {
		return nil, err
	}
	c.Freeze()
	if !e.chunk.CompareAndSwap(nil, c) {
		c = e.chunk.Load()
	}
	return c, nil
}

func (p *BufferPool) getPage(path string, f *os.File, page int64) (*poolEntry, error) {
	key := pageKey{path, page}
	p.mu.Lock()
	e, hit := p.pages.Get(key)
	if hit {
		p.stats.Hits++
		if e != touchFrame {
			p.mu.Unlock()
			return e, nil
		}
	}
	// A miss, or a hit on a frame Touch left: that page is resident in
	// the model, so it is not charged again, but its bytes are read here.
	sequential := false
	if !hit {
		sequential = p.missLocked(path, page)
	}
	p.mu.Unlock()

	data := make([]byte, PageSize)
	n, err := f.ReadAt(data, page*PageSize)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("storage: read page %d of %s: %w", page, path, err)
	}
	if !hit {
		p.model.ChargeRead(p.clock, 1, sequential)
	}
	e = &poolEntry{data: data[:n]}

	p.mu.Lock()
	defer p.mu.Unlock()
	cur, ok := p.pages.Get(key)
	if ok && cur != touchFrame { // raced with another data reader
		return cur, nil
	}
	if ok || !hit { // replace a Touch frame, or admit the missed page
		p.admitLocked(key, e)
	}
	// Otherwise the Touch frame was evicted while we read: e is ours alone.
	return e, nil
}

// missLocked counts a miss of page and reports whether it continues a
// sequential run of path, in which case it needs no seek.
func (p *BufferPool) missLocked(path string, page int64) (sequential bool) {
	sequential = p.lastPage[path] == page-1
	p.lastPage[path] = page
	p.stats.Misses++
	if !sequential {
		p.stats.SeeksPayed++
	}
	return sequential
}

// admitLocked makes e the frame of key and evicts down to capacity.
// Replacing a frame keeps the cost, so it evicts nothing.
func (p *BufferPool) admitLocked(key pageKey, e *poolEntry) {
	p.pages.Put(key, e, 1)
	p.pages.Evict(func(pageKey, *poolEntry) { p.stats.Evictions++ })
}

// Touch models reading the first size bytes of an external repository
// file through the page cache, without reading them: pages already
// resident (a "hot" run, where the OS page cache would hold the file)
// cost nothing; a missing page is charged to the disk model and leaves
// a frame without bytes that holds its place in the pool like any
// other. Flush evicts these pages like any others, restoring the cold
// cost.
func (p *BufferPool) Touch(path string, size int64) {
	for page := int64(0); page*PageSize < size; page++ {
		if missed, sequential := p.touchPage(pageKey{path, page}); missed {
			p.model.ChargeRead(p.clock, 1, sequential)
		}
	}
}

// touchPage counts Touch's visit to one page and, on a miss, admits the
// frame without bytes; the caller charges the miss outside the lock.
func (p *BufferPool) touchPage(key pageKey) (missed, sequential bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.pages.Get(key); ok {
		p.stats.Hits++
		return false, false
	}
	sequential = p.missLocked(key.path, key.page)
	p.admitLocked(key, touchFrame)
	return true, sequential
}

// Invalidate drops all cached pages of the given file, used when a file
// is rewritten.
func (p *BufferPool) Invalidate(path string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pages.All(func(key pageKey, _ *poolEntry) {
		if key.path == path {
			p.pages.Remove(key)
		}
	})
	delete(p.lastPage, path)
}
