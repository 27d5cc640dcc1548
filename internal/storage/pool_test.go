package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/vector"
)

// writePagedFile writes a file of pages-1 full pages and a short last
// page, page k filled with byte k+1, and returns it open with its size.
func writePagedFile(t *testing.T, pages int) (string, *os.File, int64) {
	t.Helper()
	var data []byte
	for k := 0; k < pages; k++ {
		n := PageSize
		if k == pages-1 {
			n = 1000
		}
		data = append(data, bytes.Repeat([]byte{byte(k + 1)}, int(n))...)
	}
	path := filepath.Join(t.TempDir(), "repo.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return path, f, int64(len(data))
}

// wantPage checks that data is page k of a writePagedFile file.
func wantPage(t *testing.T, data []byte, k, pages int) {
	t.Helper()
	n := PageSize
	if k == pages-1 {
		n = 1000
	}
	if !bytes.Equal(data, bytes.Repeat([]byte{byte(k + 1)}, int(n))) {
		t.Errorf("page %d: got %d bytes starting %v, want %d bytes of %d", k, len(data), data[:min(len(data), 4)], n, k+1)
	}
}

// copyPage decodes a page to a one-string vector holding a copy of its
// bytes; pageOf returns them.
func copyPage(raw []byte) (*vector.Vector, error) {
	return vector.FromString([]string{string(raw)}), nil
}

func pageOf(c *vector.Vector) []byte { return []byte(c.Strings()[0]) }

// lenAndFirst decodes a page to its length and first byte (-1 when
// empty).
func lenAndFirst(raw []byte) (*vector.Vector, error) {
	first := int64(-1)
	if len(raw) > 0 {
		first = int64(raw[0])
	}
	return vector.FromInt64([]int64{int64(len(raw)), first}), nil
}

// TestTouchFrameHoldsNoBytes pins the contract of the frame Touch
// leaves: it is charged once, and a data read that finds it counts a
// hit, charges nothing, reads and decodes the page and replaces the
// frame without changing what is resident.
func TestTouchFrameHoldsNoBytes(t *testing.T) {
	const pages = 3
	path, f, size := writePagedFile(t, pages)
	var clock Clock
	pool := NewBufferPool(pages, HDD7200(), &clock)

	pool.Touch(path, size)
	model := HDD7200()
	charged := model.SeekTime + pages*model.TransferPerPage
	if st := pool.Stats(); st != (PoolStats{Misses: pages, SeeksPayed: 1}) || clock.Elapsed() != charged {
		t.Fatalf("cold Touch: %+v, charged %v; want %d misses, 1 seek, %v", st, clock.Elapsed(), pages, charged)
	}

	page1, err := pool.ReadChunk(path, f, 1, copyPage)
	if err != nil {
		t.Fatal(err)
	}
	if wantPage(t, pageOf(page1), 1, pages); t.Failed() {
		t.FailNow()
	}
	again, err := pool.ReadChunk(path, f, 1, copyPage)
	if err != nil {
		t.Fatal(err)
	}
	if again != page1 {
		t.Error("the second read of a filled Touch frame read the page again")
	}
	chunk, err := pool.ReadChunk(path, f, 2, lenAndFirst)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Int64s()[0] != 1000 || chunk.Int64s()[1] != 3 {
		t.Errorf("ReadChunk of a Touch frame decoded %v, want [1000 3]", chunk.Int64s())
	}

	pool.Touch(path, size) // all three still resident, two of them now with bytes
	if st := pool.Stats(); st != (PoolStats{Hits: 3 + pages, Misses: pages, SeeksPayed: 1}) || clock.Elapsed() != charged {
		t.Errorf("after data reads and a hot Touch: %+v, charged %v; want %d hits, no new misses, seeks, evictions or charge",
			st, clock.Elapsed(), 3+pages)
	}
}

// TestTouchRacesDataReads runs Touch and data reads of one path at once
// over a pool smaller than the file, so frames are charged, filled and
// evicted concurrently: no data reader may ever see a frame without a
// chunk or the wrong page.
func TestTouchRacesDataReads(t *testing.T) {
	const pages = 5
	path, f, size := writePagedFile(t, pages)
	pool := NewBufferPool(2, NoCost(), nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := (g + i) % pages
				if g == 0 {
					pool.Touch(path, size)
					continue
				}
				c, err := pool.ReadChunk(path, f, int64(k), copyPage)
				if err != nil {
					t.Error(err)
					return
				}
				if wantPage(t, pageOf(c), k, pages); t.Failed() {
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDecodeErrorChargesOnce: a page whose decode fails stays resident
// without a chunk, charged once like any miss, so the next read counts a
// hit, charges nothing and decodes it again.
func TestDecodeErrorChargesOnce(t *testing.T) {
	const pages = 3
	path, f, _ := writePagedFile(t, pages)
	var clock Clock
	pool := NewBufferPool(pages, HDD7200(), &clock)
	fail := errors.New("corrupt page")
	if _, err := pool.ReadChunk(path, f, 0, func([]byte) (*vector.Vector, error) { return nil, fail }); !errors.Is(err, fail) {
		t.Fatalf("ReadChunk with a failing decode: err = %v, want %v", err, fail)
	}
	model := HDD7200()
	charged := model.SeekTime + model.TransferPerPage
	if st := pool.Stats(); st != (PoolStats{Misses: 1, SeeksPayed: 1}) || clock.Elapsed() != charged {
		t.Fatalf("after the failed decode: %+v, charged %v; want 1 miss, 1 seek, %v", st, clock.Elapsed(), charged)
	}
	c, err := pool.ReadChunk(path, f, 0, copyPage)
	if err != nil {
		t.Fatal(err)
	}
	wantPage(t, pageOf(c), 0, pages)
	if again, err := pool.ReadChunk(path, f, 0, copyPage); err != nil || again != c {
		t.Errorf("third read = %p, %v; want the chunk the second read decoded, %p", again, err, c)
	}
	if st := pool.Stats(); st != (PoolStats{Hits: 2, Misses: 1, SeeksPayed: 1}) || clock.Elapsed() != charged {
		t.Errorf("after two more reads: %+v, charged %v; want 2 hits and nothing new charged", st, clock.Elapsed())
	}
}
