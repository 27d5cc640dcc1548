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
// for VARCHAR (16-byte string headers over the 8-byte codes). Index
// files and Touch read bytes only.
type BufferPool struct {
	mu       sync.Mutex
	model    DiskModel
	clock    *Clock
	pages    *lru.List[pageKey, *poolEntry] // each page costs 1: the budget is the capacity
	lastPage map[string]int64
	stats    PoolStats
}

type poolEntry struct {
	data  []byte
	chunk atomic.Pointer[vector.Vector] // data decoded and frozen; nil until ReadChunk
}

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

// ReadAt fills buf with file content at off, going through the page
// cache. f must be an open handle on path. It charges the disk model for
// every page that misses, with seeks charged only on non-sequential
// access patterns per file.
func (p *BufferPool) ReadAt(path string, f *os.File, buf []byte, off int64) error {
	n := int64(len(buf))
	if n == 0 {
		return nil
	}
	for done := int64(0); done < n; {
		pos := off + done
		page := pos / PageSize
		inPage := pos % PageSize
		want := PageSize - inPage
		if rem := n - done; rem < want {
			want = rem
		}
		e, err := p.getPage(path, f, page)
		if err != nil {
			return err
		}
		data := e.data
		if int64(len(data)) < inPage {
			return fmt.Errorf("storage: short page %d of %s: have %d bytes, need offset %d",
				page, path, len(data), inPage)
		}
		avail := int64(len(data)) - inPage
		if avail < want {
			want = avail
		}
		if want <= 0 {
			return io.ErrUnexpectedEOF
		}
		copy(buf[done:done+want], data[inPage:inPage+want])
		done += want
	}
	return nil
}

// ReadChunk returns page of path decoded by decode and frozen, going
// through the same hit, miss, seek and LRU accounting as ReadAt. The
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
	if e, ok := p.pages.Get(key); ok {
		p.stats.Hits++
		p.mu.Unlock()
		return e, nil
	}
	sequential := p.lastPage[path] == page-1
	p.lastPage[path] = page
	p.stats.Misses++
	if !sequential {
		p.stats.SeeksPayed++
	}
	p.mu.Unlock()

	data := make([]byte, PageSize)
	n, err := f.ReadAt(data, page*PageSize)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("storage: read page %d of %s: %w", page, path, err)
	}
	p.model.ChargeRead(p.clock, 1, sequential)

	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.pages.Get(key); ok { // raced with another reader
		return e, nil
	}
	e := &poolEntry{data: data[:n]}
	p.pages.Put(key, e, 1)
	p.pages.Evict(func(pageKey, *poolEntry) { p.stats.Evictions++ })
	return e, nil
}

// Touch pulls the first size bytes of the file through the page cache
// without returning data. It models reading an external repository file:
// pages already resident (a "hot" run, where the OS page cache would
// hold the file) cost nothing; missing pages are charged to the disk
// model. Flush evicts these pages like any others, restoring the cold
// cost.
func (p *BufferPool) Touch(path string, f *os.File, size int64) error {
	for page := int64(0); page*PageSize < size; page++ {
		if _, err := p.getPage(path, f, page); err != nil {
			return err
		}
	}
	return nil
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
