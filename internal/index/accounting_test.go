package index

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/vector"
)

// TestPoolAccountingGolden replays a fixed script through a 4-page pool
// with the HDD7200 model: Touch two repository files, read column
// chunks, then run index lookups, a range and the uniqueness walk over
// an index five pages long. The misses, seeks, evictions and modeled
// I/O are constants of the cost model and must not move; hits may only
// fall (a cursor rereads no page it holds).
func TestPoolAccountingGolden(t *testing.T) {
	dir := t.TempDir()
	repoA, repoB := filepath.Join(dir, "a.mseed"), filepath.Join(dir, "b.mseed")
	for _, f := range []struct {
		path string
		size int
	}{{repoA, 3*storage.PageSize + 4000}, {repoB, 2 * storage.PageSize}} {
		if err := os.WriteFile(f.path, make([]byte, f.size), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	const rows = 40000
	build := storage.NewBufferPool(1024, storage.NoCost(), nil)
	s, err := storage.Open(filepath.Join(dir, "db"), build)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := s.Create("t", []storage.Column{{Name: "v", Kind: vector.KindInt64}})
	if err != nil {
		t.Fatal(err)
	}
	app, err := tbl.NewAppender()
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(i) * 7
	}
	if err := app.Append(vector.NewBatch(vector.FromInt64(vals))); err != nil {
		t.Fatal(err)
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	entries := make([]Entry, 12000)
	for i := range entries {
		entries[i] = Entry{A: int64(i / 3), B: int64(i % 3), RowID: int64(i)}
	}
	idxPath := filepath.Join(dir, "t.idx")
	ix, err := Build(idxPath, build, entries)
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()

	var clock storage.Clock
	pool := storage.NewBufferPool(4, storage.HDD7200(), &clock)
	s, err = storage.Open(filepath.Join(dir, "db"), pool)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tbl = s.MustTable("t")
	if ix, err = Open(idxPath, pool); err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	touch := func(path string) {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		pool.Touch(path, st.Size())
	}
	touch(repoA)
	touch(repoB)
	for _, r := range [][2]int64{{0, 9000}, {30000, 40000}, {8000, 8200}} {
		if _, err := tbl.ReadColumn(0, r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	touch(repoB)
	var ids []int64
	for _, k := range [][2]int64{{2730 / 3, 0}, {1, 2}, {3999, 2}, {2000, 1}} { // entry 2730 straddles pages 0 and 1
		if ids, err = ix.Lookup(k[0], k[1], ids...); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range []int64{910, 0, 5000, 3500} {
		if ids, err = ix.LookupA(a, ids...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ix.RangeA(2700, 3100, ids...); err != nil {
		t.Fatal(err)
	}
	if ok, err := ix.Unique(); err != nil || !ok {
		t.Fatal(ok, err)
	}
	if _, err := tbl.ReadColumn(0, 100, 200); err != nil {
		t.Fatal(err)
	}
	touch(repoA)
	// Captured when Touch still read every page's bytes and the index
	// made one pool read per entry.
	const misses, seeks, evictions, maxHits, modeled = 27, 16, 23, 13344, 158062491 * time.Nanosecond
	st := pool.Stats()
	if st.Misses != misses || st.SeeksPayed != seeks || st.Evictions != evictions || clock.Elapsed() != modeled {
		t.Errorf("got %d misses, %d seeks, %d evictions, %v modeled; want %d, %d, %d, %v",
			st.Misses, st.SeeksPayed, st.Evictions, clock.Elapsed(), misses, seeks, evictions, modeled)
	}
	if st.Hits > maxHits {
		t.Errorf("got %d hits, want at most %d", st.Hits, maxHits)
	}
}
