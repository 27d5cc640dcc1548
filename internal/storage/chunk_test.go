package storage

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/vector"
)

// chunkRows gives every column at least three pages and a short last
// page: three BOOLEAN pages (the last holds 1 000 values) and seventeen
// pages of each 8-byte kind.
const chunkRows = 2*PageSize + 1000

var chunkTags = []string{"ISK", "ANTO", "BHE", "BHN", "BHZ", "GE", "KO"}

// writeChunkTable creates a table of all five kinds holding chunkRows
// rows, appended in a few batches of uneven size, in a store over dir.
func writeChunkTable(t *testing.T, dir string) {
	t.Helper()
	s, err := Open(dir, NewBufferPool(16, NoCost(), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tbl, err := s.Create("c", sampleCols())
	if err != nil {
		t.Fatal(err)
	}
	a, err := tbl.NewAppender()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for lo := 0; lo < chunkRows; {
		n := min(chunkRows-lo, 1+rng.Intn(40000))
		ids, vals, tags, tss, oks := make([]int64, n), make([]float64, n), make([]string, n), make([]int64, n), make([]bool, n)
		for i := range ids {
			ids[i] = int64(lo+i)*7 - 1000
			vals[i] = rng.NormFloat64()
			tags[i] = chunkTags[rng.Intn(len(chunkTags))]
			tss[i] = int64(lo+i) * 25e6
			oks[i] = rng.Intn(3) == 0
		}
		b := vector.NewBatch(vector.FromInt64(ids), vector.FromFloat64(vals),
			vector.FromString(tags), vector.FromTime(tss), vector.FromBool(oks))
		if err := a.Append(b); err != nil {
			t.Fatal(err)
		}
		lo += n
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// openChunkTable reopens the table writeChunkTable left in dir over pool.
func openChunkTable(t *testing.T, dir string, pool *BufferPool) *Table {
	t.Helper()
	s, err := Open(dir, pool)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	tbl, ok := s.Table("c")
	if !ok {
		t.Fatal("table c missing")
	}
	return tbl
}

// reference reads values straight from the bytes of tbl's column files,
// without the pool.
type reference struct {
	kinds []vector.Kind
	raw   [][]byte
	dicts [][]string
}

func referenceColumns(t *testing.T, tbl *Table) *reference {
	t.Helper()
	ref := &reference{}
	for c, col := range tbl.Columns() {
		raw, err := os.ReadFile(tbl.colPath(c))
		if err != nil {
			t.Fatal(err)
		}
		if w := diskWidth(col.Kind); len(raw) != chunkRows*w {
			t.Fatalf("%s: %d bytes on disk, want %d", col.Name, len(raw), chunkRows*w)
		}
		var dict []string
		if d := tbl.Dict(c); d != nil {
			dict = d.vals
		}
		ref.kinds, ref.raw, ref.dicts = append(ref.kinds, col.Kind), append(ref.raw, raw), append(ref.dicts, dict)
	}
	return ref
}

// value decodes row r of column c.
func (ref *reference) value(c int, r int64) vector.Value {
	k := ref.kinds[c]
	b := ref.raw[c][r*int64(diskWidth(k)):]
	switch k {
	case vector.KindBool:
		return vector.Bool(b[0] != 0)
	case vector.KindFloat64:
		return vector.Float64(math.Float64frombits(binary.LittleEndian.Uint64(b)))
	case vector.KindString:
		return vector.Str(ref.dicts[c][binary.LittleEndian.Uint64(b)])
	}
	return vector.Value{Kind: k, I: int64(binary.LittleEndian.Uint64(b))}
}

// equal fails the test at the first value of got that differs from
// column c at rows.
func (ref *reference) equal(t *testing.T, what string, got *vector.Vector, c int, rows []int64) {
	t.Helper()
	if got.Len() != len(rows) {
		t.Fatalf("%s: %d values, want %d", what, got.Len(), len(rows))
	}
	for i, r := range rows {
		if g, want := got.Get(i), ref.value(c, r); g != want {
			t.Fatalf("%s of column %d: value %d (row %d) = %v, want %v", what, c, i, r, g, want)
		}
	}
}

// randomRowIDs returns one of four shapes of row list: sorted runs,
// shuffled rows, runs with duplicates, or sorted rows with gaps.
func randomRowIDs(rng *rand.Rand) []int64 {
	var ids []int64
	switch rng.Intn(4) {
	case 0: // a few runs, each crossing page boundaries now and then
		for k := rng.Intn(4); k >= 0; k-- {
			start, n := rng.Int63n(chunkRows), 1+rng.Int63n(3000)
			for r := start; r < min(start+n, chunkRows); r++ {
				ids = append(ids, r)
			}
		}
	case 1:
		for k := rng.Intn(20); k >= 0; k-- {
			ids = append(ids, rng.Int63n(chunkRows))
		}
	case 2:
		start := rng.Int63n(chunkRows - 10)
		for k := rng.Intn(30); k >= 0; k-- {
			r := start + rng.Int63n(10)
			ids = append(ids, r, r, r+1)
		}
	default:
		for r := rng.Int63n(100); r < chunkRows; r += 1 + rng.Int63n(20000) {
			ids = append(ids, r)
		}
	}
	return ids
}

// TestChunkTable writes one table of chunkRows rows and runs the checks
// that need pages of every kind over it.
func TestChunkTable(t *testing.T) {
	dir := t.TempDir()
	writeChunkTable(t, dir)
	t.Run("ReadsMatchFileBytes", func(t *testing.T) { chunkReadsMatchFileBytes(t, dir) })
	t.Run("IOMatchesByteReads", func(t *testing.T) { chunkIOMatchesByteReads(t, dir) })
	t.Run("ConcurrentReads", func(t *testing.T) { concurrentChunkReads(t, dir) })
	t.Run("FlushChargesMissesAgain", func(t *testing.T) { flushChargesMissesAgain(t, dir) })
}

func chunkReadsMatchFileBytes(t *testing.T, dir string) {
	// 24 frames for 71 pages: reads keep evicting and re-decoding.
	tbl := openChunkTable(t, dir, NewBufferPool(24, NoCost(), nil))
	ref := referenceColumns(t, tbl)
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 60; iter++ {
		c := rng.Intn(len(ref.kinds))
		from := rng.Int63n(chunkRows + 1)
		to := min(from+rng.Int63n(20000), chunkRows)
		if iter%10 == 0 { // long ranges, up to the whole column
			to = from + rng.Int63n(chunkRows-from+1)
		}
		v, err := tbl.ReadColumn(c, from, to)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]int64, to-from)
		for i := range rows {
			rows[i] = from + int64(i)
		}
		ref.equal(t, "ReadColumn", v, c, rows)
	}
	all := []int{0, 1, 2, 3, 4}
	for iter := 0; iter < 40; iter++ {
		ids := randomRowIDs(rng)
		b, err := tbl.ReadRowsAt(all, ids)
		if err != nil {
			t.Fatal(err)
		}
		for c := range all {
			ref.equal(t, "ReadRowsAt", b.Cols[c], c, ids)
		}
	}
	b, err := tbl.ReadRowsAt(all, nil)
	if err != nil || b.NumCols() != len(all) || b.Len() != 0 || b.Cols[2].Kind() != vector.KindString {
		t.Fatalf("ReadRowsAt of no rows = %v, %v; want five empty typed columns", b, err)
	}
	if _, err := tbl.ReadRowsAt(all, []int64{5, chunkRows}); err == nil {
		t.Error("ReadRowsAt accepted a row past the table")
	}
}

// chunkIOMatchesByteReads replays the same reads through the chunk path
// and as plain ReadPage calls over the same byte ranges, each over a
// fresh pool with its own clock, once with a pool smaller than the
// table.
func chunkIOMatchesByteReads(t *testing.T, dir string) {
	for _, capPages := range []int{1024, 6} {
		var chunkClock, byteClock Clock
		chunkPool := NewBufferPool(capPages, HDD7200(), &chunkClock)
		bytePool := NewBufferPool(capPages, HDD7200(), &byteClock)
		tbl := openChunkTable(t, dir, chunkPool)
		files := make([]*os.File, len(tbl.Columns()))
		for c := range files {
			f, err := os.Open(tbl.colPath(c))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			files[c] = f
		}
		readBytes := func(c int, from, to int64) {
			w := int64(diskWidth(tbl.Columns()[c].Kind))
			for page := from * w / PageSize; from < to && page*PageSize < to*w; page++ {
				if _, err := bytePool.ReadPage(tbl.colPath(c), files[c], page); err != nil {
					t.Fatal(err)
				}
			}
		}
		rng := rand.New(rand.NewSource(2))
		for iter := 0; iter < 40; iter++ {
			if iter%2 == 0 {
				c := rng.Intn(len(files))
				from := rng.Int63n(chunkRows)
				to := from + rng.Int63n(min(chunkRows-from, 30000)+1)
				if _, err := tbl.ReadColumn(c, from, to); err != nil {
					t.Fatal(err)
				}
				readBytes(c, from, to)
				continue
			}
			cols := []int{rng.Intn(len(files)), rng.Intn(len(files))}
			ids := randomRowIDs(rng)
			if _, err := tbl.ReadRowsAt(cols, ids); err != nil {
				t.Fatal(err)
			}
			for _, c := range cols { // column-major, one value at a time
				for _, r := range ids {
					readBytes(c, r, r+1)
				}
			}
		}
		cs, bs := chunkPool.Stats(), bytePool.Stats()
		if cs.Misses != bs.Misses || cs.SeeksPayed != bs.SeeksPayed || cs.Evictions != bs.Evictions {
			t.Errorf("pool of %d pages: chunk path %+v, byte reads %+v", capPages, cs, bs)
		}
		if chunkClock.Elapsed() != byteClock.Elapsed() {
			t.Errorf("pool of %d pages: chunk path charged %v, byte reads %v", capPages, chunkClock.Elapsed(), byteClock.Elapsed())
		}
		if capPages == 6 && cs.Evictions == 0 {
			t.Error("the small pool never evicted")
		}
	}
}

func TestReadColumnCopyOnWrite(t *testing.T) {
	s := newTestStore(t)
	tbl, _ := s.Create("sample", sampleCols())
	fillSample(t, tbl, 100)
	v, err := tbl.ReadColumn(0, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	tags, err := tbl.ReadColumn(2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	before := vector.CowCopies()
	v.Set(0, vector.Int64(-1))
	v.MutableInt64s()[1] = -2
	if got := vector.CowCopies() - before; got != 1 {
		t.Errorf("Set then MutableInt64s made %d copies, want 1", got)
	}
	tags.Set(0, vector.Str("zulu"))
	if got := vector.CowCopies() - before; got != 2 {
		t.Errorf("Set on a string read made %d copies in all, want 2", got)
	}
	again, err := tbl.ReadColumn(0, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if a := again.Int64s(); a[0] != 10 || a[1] != 11 {
		t.Errorf("reread after a write = %v, want the stored 10, 11", a[:2])
	}
	if s, _ := tbl.ReadColumn(2, 0, 1); s.Strings()[0] != "alpha" {
		t.Errorf("reread string = %q, want alpha", s.Strings()[0])
	}
}

func concurrentChunkReads(t *testing.T, dir string) {
	pool := NewBufferPool(1024, NoCost(), nil)
	tbl := openChunkTable(t, dir, pool)
	ref := referenceColumns(t, tbl)
	for round := 0; round < 3; round++ {
		pool.Flush() // every round races to decode the same cold pages
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for c := range ref.kinds {
					v, err := tbl.ReadColumn(c, PageSize-100, PageSize+100)
					if err != nil {
						t.Error(err)
						return
					}
					b, err := tbl.ReadRowsAt([]int{c}, []int64{3, 4, 5, chunkRows - 1, int64(g)})
					if err != nil {
						t.Error(err)
						return
					}
					if v.Get(0) != ref.value(c, PageSize-100) || v.Get(199) != ref.value(c, PageSize+99) ||
						b.Cols[0].Get(3) != ref.value(c, chunkRows-1) || b.Cols[0].Get(4) != ref.value(c, int64(g)) {
						t.Errorf("goroutine %d read column %d wrong", g, c)
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

func TestChunksInvalidatedWithPages(t *testing.T) {
	t.Run("append", func(t *testing.T) {
		s := newTestStore(t)
		tbl, _ := s.Create("sample", sampleCols())
		fillSample(t, tbl, 10)
		if _, err := tbl.ReadColumn(0, 0, 10); err != nil { // caches the short page
			t.Fatal(err)
		}
		fillSample(t, tbl, 10)
		v, err := tbl.ReadColumn(0, 5, 20)
		if err != nil {
			t.Fatal(err)
		}
		if a := v.Int64s(); a[0] != 5 || a[5] != 0 || a[14] != 9 {
			t.Errorf("read after append = %v", a)
		}
	})
	t.Run("truncate", func(t *testing.T) {
		s := newTestStore(t)
		tbl, _ := s.Create("sample", sampleCols())
		fillSample(t, tbl, 10)
		if _, err := tbl.ReadColumn(2, 0, 10); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Truncate(); err != nil {
			t.Fatal(err)
		}
		a, err := tbl.NewAppender()
		if err != nil {
			t.Fatal(err)
		}
		err = a.Append(vector.NewBatch(vector.FromInt64([]int64{1, 2}), vector.FromFloat64([]float64{1, 2}),
			vector.FromString([]string{"delta", "epsilon"}), vector.FromTime([]int64{1, 2}), vector.FromBool([]bool{true, false})))
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		v, err := tbl.ReadColumn(2, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := v.Strings(); got[0] != "delta" || got[1] != "epsilon" {
			t.Errorf("read after truncate and append = %v, want [delta epsilon]", got)
		}
	})
}

func flushChargesMissesAgain(t *testing.T, dir string) {
	pool := NewBufferPool(1024, NoCost(), nil)
	tbl := openChunkTable(t, dir, pool)
	read := func() int64 {
		before := pool.Stats().Misses
		if _, err := tbl.ReadBatch([]int{0, 2, 4}, 0, chunkRows); err != nil {
			t.Fatal(err)
		}
		return pool.Stats().Misses - before
	}
	cold := read()
	if hot := read(); cold == 0 || hot != 0 {
		t.Fatalf("cold read missed %d pages, hot read %d; want some, then none", cold, hot)
	}
	pool.Flush()
	if again := read(); again != cold {
		t.Errorf("read after Flush missed %d pages, want %d again", again, cold)
	}
}

// A crash between Appender.Close flushing the column files and saving
// the dictionaries leaves codes on disk that the dictionary lacks.
func TestDictionaryShorterThanColumn(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, NewBufferPool(128, NoCost(), nil))
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := s.Create("sample", sampleCols())
	fillSample(t, tbl, 100)
	dictPath := tbl.dictPath(2)
	s.Close()
	short, _ := json.Marshal([]string{"alpha"})
	if err := os.WriteFile(dictPath, short, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir, NewBufferPool(128, NoCost(), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tbl, _ = s.Table("sample")
	_, err = tbl.ReadColumn(2, 0, 10)
	if err == nil || !strings.Contains(err.Error(), "sample.tag") || !strings.Contains(err.Error(), "code 1") {
		t.Fatalf("read of a column past its dictionary: err = %v, want one naming sample.tag and code 1", err)
	}
	if _, err := tbl.ReadRowsAt([]int{0, 2}, []int64{0, 1}); err == nil {
		t.Error("ReadRowsAt read a column past its dictionary")
	}
	v, err := tbl.ReadColumn(0, 0, 100)
	if err != nil || v.Int64s()[99] != 99 {
		t.Errorf("valid read after the failed one = %v, %v", v, err)
	}
}
