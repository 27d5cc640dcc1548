package storage

import (
	"bytes"
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
// hit, charges nothing, reads the page and replaces the frame without
// changing what is resident.
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

	page1, err := pool.ReadPage(path, f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if wantPage(t, page1, 1, pages); t.Failed() {
		t.FailNow()
	}
	again, err := pool.ReadPage(path, f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &page1[0] {
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
// evicted concurrently: no data reader may ever see a frame without
// bytes or the wrong page.
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
				switch k := (g + i) % pages; g % 4 {
				case 0:
					pool.Touch(path, size)
				case 1:
					data, err := pool.ReadPage(path, f, int64(k))
					if err != nil {
						t.Error(err)
						return
					}
					wantPage(t, data, k, pages)
				case 2, 3:
					c, err := pool.ReadChunk(path, f, int64(k), lenAndFirst)
					if err != nil {
						t.Error(err)
						return
					}
					if n, b := c.Int64s()[0], c.Int64s()[1]; b != int64(k+1) || (k < pages-1) != (n == PageSize) {
						t.Errorf("ReadChunk of page %d decoded %d bytes of %d", k, n, b)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
