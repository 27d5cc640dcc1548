package storage

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"

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
// A frame holds its page decoded and frozen, never its bytes
// (ReadChunk): a miss reads the page into a recycled buffer, decodes it
// and gives the buffer back, so a resident page costs its chunk only.
// Capacity is counted in pages, whatever their chunks weigh. Touch reads
// no bytes at all: a page it charges holds its place in the pool, at
// cost 1, in a frame with no chunk.
type BufferPool struct {
	mu       sync.Mutex
	model    DiskModel
	clock    *Clock
	pages    *lru.List[pageKey, *poolEntry] // each page costs 1: the budget is the capacity
	lastPage map[string]int64
	stats    PoolStats
}

// poolEntry is one frame. A published frame is never mutated: readers
// use its chunk without holding the pool's lock, so a frame is filled by
// replacing it.
type poolEntry struct {
	chunk *vector.Vector // the page decoded and frozen; nil in touchFrame
}

// touchFrame is the frame Touch leaves for a page it charged: the page
// is resident in the model but holds no chunk. Every such page shares
// it, and ReadChunk never returns it: a read that finds it counts a hit,
// reads and decodes the page and replaces the frame. A page whose decode
// failed is left in it too, so the failed read is charged once, like any
// other.
var touchFrame = &poolEntry{}

// pageBufs holds idle page-sized buffers for ReadChunk to read into.
// Like mseed's Readers, it is a free list that garbage collection does
// not empty. It holds one per core, since ReadChunk keeps a buffer only
// while it reads and decodes a page; a buffer returned to a full list is
// dropped.
var pageBufs = make(chan *[PageSize]byte, runtime.GOMAXPROCS(0))

func getPageBuf() *[PageSize]byte {
	select {
	case b := <-pageBufs:
		return b
	default:
		return new([PageSize]byte)
	}
}

func putPageBuf(b *[PageSize]byte) {
	select {
	case pageBufs <- b:
	default:
	}
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

// ReadChunk returns page of path decoded by decode and frozen. f must be
// an open handle on path. The first read of a page decodes it; later
// reads get the same frozen chunk until the page leaves the pool (Flush,
// Invalidate or eviction drop the chunk with the page). Callers hand out
// Slice/Share handles of it, never the chunk itself, and may keep them
// after the page leaves the pool.
//
// decode gets the page's bytes (the last page of a file is short) in a
// buffer that is reused as soon as decode returns: the chunk must not
// keep any part of raw. decode runs outside the pool's lock; when two
// readers miss the same page at once, the first frame admitted wins.
func (p *BufferPool) ReadChunk(path string, f *os.File, page int64, decode func(raw []byte) (*vector.Vector, error)) (*vector.Vector, error) {
	key := pageKey{path, page}
	p.mu.Lock()
	e, hit := p.pages.Get(key)
	if hit {
		p.stats.Hits++
		if e != touchFrame {
			p.mu.Unlock()
			return e.chunk, nil
		}
	}
	// A miss, or a hit on a frame without a chunk: that page is resident
	// in the model, so it is not charged again, but it is read here.
	sequential := false
	if !hit {
		sequential = p.missLocked(path, page)
	}
	p.mu.Unlock()

	buf := getPageBuf()
	n, err := f.ReadAt(buf[:], page*PageSize)
	if err != nil && err != io.EOF {
		putPageBuf(buf)
		return nil, fmt.Errorf("storage: read page %d of %s: %w", page, path, err)
	}
	if !hit {
		p.model.ChargeRead(p.clock, 1, sequential)
	}
	chunk, err := decode(buf[:n])
	putPageBuf(buf)
	e = touchFrame // a page that fails to decode stays resident, read and charged
	if err == nil {
		chunk.Freeze()
		e = &poolEntry{chunk: chunk}
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	cur, ok := p.pages.Get(key)
	if ok && cur != touchFrame { // raced with another reader
		return cur.chunk, nil
	}
	if ok || !hit { // replace a Touch frame, or admit the missed page
		p.admitLocked(key, e)
	}
	// Otherwise the Touch frame was evicted while we read: e is ours alone.
	return e.chunk, err
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
