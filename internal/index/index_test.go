package index

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

func testPool() *storage.BufferPool {
	return storage.NewBufferPool(256, storage.NoCost(), nil)
}

func buildTest(t *testing.T, entries []Entry) *Index {
	t.Helper()
	ix, err := Build(filepath.Join(t.TempDir(), "t.idx"), testPool(), entries)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

func TestLookupExact(t *testing.T) {
	ix := buildTest(t, []Entry{
		{A: 1, B: 1, RowID: 10},
		{A: 1, B: 2, RowID: 11},
		{A: 2, B: 1, RowID: 20},
		{A: 2, B: 1, RowID: 21}, // duplicate key, two rows
		{A: 3, B: 9, RowID: 30},
	})
	rows, err := ix.Lookup(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0] != 20 || rows[1] != 21 {
		t.Errorf("Lookup(2,1) = %v, want [20 21]", rows)
	}
	rows, _ = ix.Lookup(1, 2)
	if len(rows) != 1 || rows[0] != 11 {
		t.Errorf("Lookup(1,2) = %v, want [11]", rows)
	}
	rows, _ = ix.Lookup(9, 9)
	if len(rows) != 0 {
		t.Errorf("Lookup(9,9) = %v, want empty", rows)
	}
}

func TestLookupPrefix(t *testing.T) {
	ix := buildTest(t, []Entry{
		{A: 5, B: -3, RowID: 1},
		{A: 5, B: 0, RowID: 2},
		{A: 5, B: 7, RowID: 3},
		{A: 6, B: 0, RowID: 4},
	})
	rows, err := ix.LookupA(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Errorf("LookupA(5) = %v, want 3 rows", rows)
	}
	rows, _ = ix.LookupA(7)
	if len(rows) != 0 {
		t.Errorf("LookupA(7) = %v, want empty", rows)
	}
}

func TestRange(t *testing.T) {
	var entries []Entry
	for i := int64(0); i < 100; i++ {
		entries = append(entries, Entry{A: i * 10, RowID: i})
	}
	ix := buildTest(t, entries)
	rows, err := ix.RangeA(95, 250)
	if err != nil {
		t.Fatal(err)
	}
	// keys 100..250 step 10 → 16 entries (100..250)
	if len(rows) != 16 {
		t.Errorf("RangeA(95,250) returned %d rows, want 16", len(rows))
	}
	if rows[0] != 10 {
		t.Errorf("first row = %d, want 10", rows[0])
	}
	rows, _ = ix.RangeA(2000, 3000)
	if len(rows) != 0 {
		t.Error("out-of-range query returned rows")
	}
}

func TestUnique(t *testing.T) {
	ix := buildTest(t, []Entry{{A: 1, B: 1, RowID: 1}, {A: 1, B: 2, RowID: 2}})
	ok, err := ix.Unique()
	if err != nil || !ok {
		t.Errorf("Unique = %v, %v; want true", ok, err)
	}
	dup := buildTest(t, []Entry{{A: 1, B: 1, RowID: 1}, {A: 1, B: 1, RowID: 2}})
	ok, err = dup.Unique()
	if err != nil || ok {
		t.Errorf("Unique with dup = %v, %v; want false", ok, err)
	}
}

func TestEmptyIndex(t *testing.T) {
	ix := buildTest(t, nil)
	if ix.Len() != 0 || ix.SizeOnDisk() != 0 {
		t.Error("empty index has entries")
	}
	rows, err := ix.Lookup(1, 1)
	if err != nil || len(rows) != 0 {
		t.Error("lookup on empty index failed")
	}
}

func TestNegativeKeys(t *testing.T) {
	ix := buildTest(t, []Entry{
		{A: -100, RowID: 1}, {A: -1, RowID: 2}, {A: 0, RowID: 3}, {A: 50, RowID: 4},
	})
	rows, err := ix.RangeA(-150, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("negative range got %v, want 2 rows", rows)
	}
}

func TestPersistedReopen(t *testing.T) {
	pool := testPool()
	path := filepath.Join(t.TempDir(), "p.idx")
	ix, err := Build(path, pool, []Entry{{A: 7, B: 7, RowID: 77}})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
	ix2, err := Open(path, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	rows, err := ix2.Lookup(7, 7)
	if err != nil || len(rows) != 1 || rows[0] != 77 {
		t.Errorf("reopened lookup = %v, %v", rows, err)
	}
}

// linear answers what the index answers by scanning its entries in
// index order.
type linear []Entry

func linearOf(entries []Entry) linear {
	l := append(linear(nil), entries...)
	sort.Slice(l, func(i, j int) bool { return l[i].Less(l[j]) })
	return l
}

func (l linear) rows(in func(Entry) bool) []int64 {
	var out []int64
	for _, e := range l {
		if in(e) {
			out = append(out, e.RowID)
		}
	}
	return out
}

func (l linear) unique() bool {
	for i := 1; i < len(l); i++ {
		if l[i].A == l[i-1].A && l[i].B == l[i-1].B {
			return false
		}
	}
	return true
}

// sameRows reports whether got holds exactly want, and whether it reused
// the backing array of dst where dst had room.
func sameRows(got, want, dst []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("row %d is %d, want %d", i, got[i], want[i])
		}
	}
	if len(got) > 0 && len(got) <= cap(dst) && &got[0] != &dst[:1][0] {
		return fmt.Errorf("%d rows fit dst's capacity %d, but a new array was allocated", len(got), cap(dst))
	}
	return nil
}

// TestLookupAgainstLinearScanProperty checks Lookup, LookupA, RangeA and
// Unique against a linear scan over indexes of thousands of entries, so
// binary-search steps and runs cross page boundaries and some entries
// straddle two pages (PageSize is not a multiple of EntrySize: entry
// 2730 is the first that straddles). The pool is smaller than the index,
// and every lookup passes the previous result back as dst, stale
// contents and all.
func TestLookupAgainstLinearScanProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3000 + r.Intn(7000)
		span := int64(20 + r.Intn(300)) // long runs of one key
		if r.Intn(2) == 0 {
			span = 1 << 40 // keys almost surely distinct
			if r.Intn(2) == 0 {
				span = 1 << 20
			}
		}
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{A: r.Int63n(span) - span/2, B: int64(r.Intn(3)), RowID: int64(i)}
		}
		want := linearOf(entries)
		ix, err := Build(filepath.Join(t.TempDir(), "q.idx"), storage.NewBufferPool(2, storage.NoCost(), nil), entries)
		if err != nil {
			t.Error(err)
			return false
		}
		defer ix.Close()

		dst := make([]int64, 40, 100)
		for i := range dst {
			dst[i] = -1
		}
		check := func(what string, got []int64, err error, in func(Entry) bool) bool {
			if err == nil {
				err = sameRows(got, want.rows(in), dst)
			}
			if err != nil {
				t.Errorf("seed %d, %d entries: %s: %v", seed, n, what, err)
				return false
			}
			dst = got
			return true
		}
		probes := []Entry{want[2730], want[n-1], want[0]}
		for trial := 0; trial < 12; trial++ {
			e := want[r.Intn(n)]
			if trial%4 == 0 {
				e.A = r.Int63n(span) - span/2 // usually absent when keys are sparse
			}
			probes = append(probes, e)
		}
		for _, e := range probes {
			a, b, hi := e.A, e.B, e.A+r.Int63n(span/8+1)
			got, err := ix.Lookup(a, b, dst...)
			if !check(fmt.Sprintf("Lookup(%d, %d)", a, b), got, err, func(e Entry) bool { return e.A == a && e.B == b }) {
				return false
			}
			got, err = ix.LookupA(a, dst...)
			if !check(fmt.Sprintf("LookupA(%d)", a), got, err, func(e Entry) bool { return e.A == a }) {
				return false
			}
			got, err = ix.RangeA(a, hi, dst...)
			if !check(fmt.Sprintf("RangeA(%d, %d)", a, hi), got, err, func(e Entry) bool { return e.A >= a && e.A <= hi }) {
				return false
			}
		}
		unique, err := ix.Unique()
		if err != nil || unique != want.unique() {
			t.Errorf("seed %d: Unique = %v, %v; want %v", seed, unique, err, want.unique())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentLookupsOnSmallPool runs lookups from several goroutines
// over an index three pages long and a pool of two, so frames are
// evicted while other lookups' cursors still read their words.
func TestConcurrentLookupsOnSmallPool(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const keys = 3000
	entries := make([]Entry, 8000)
	for i := range entries {
		entries[i] = Entry{A: r.Int63n(keys), B: int64(r.Intn(2)), RowID: int64(i)}
	}
	want := linearOf(entries)
	ix, err := Build(filepath.Join(t.TempDir(), "c.idx"), storage.NewBufferPool(2, storage.NoCost(), nil), entries)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			var dst []int64
			for i := 0; i < 150; i++ {
				a, b := r.Int63n(keys), int64(r.Intn(2))
				var (
					got []int64
					err error
					in  func(Entry) bool
				)
				switch i % 3 {
				case 0:
					got, err = ix.Lookup(a, b, dst...)
					in = func(e Entry) bool { return e.A == a && e.B == b }
				case 1:
					got, err = ix.LookupA(a, dst...)
					in = func(e Entry) bool { return e.A == a }
				case 2:
					got, err = ix.RangeA(a, a+4, dst...)
					in = func(e Entry) bool { return e.A >= a && e.A <= a+4 }
				}
				if err == nil {
					err = sameRows(got, want.rows(in), dst)
				}
				if err != nil {
					t.Errorf("goroutine %d, probe %d of key (%d, %d): %v", g, i, a, b, err)
					return
				}
				dst = got
			}
		}(g)
	}
	wg.Wait()
}

func TestColdLookupChargesIO(t *testing.T) {
	var clock storage.Clock
	pool := storage.NewBufferPool(1024, storage.HDD7200(), &clock)
	var entries []Entry
	for i := int64(0); i < 50000; i++ {
		entries = append(entries, Entry{A: i, RowID: i})
	}
	ix, err := Build(filepath.Join(t.TempDir(), "c.idx"), pool, entries)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	pool.Flush()
	clock.Reset()
	if _, err := ix.Lookup(25000, 0); err != nil {
		t.Fatal(err)
	}
	if clock.Elapsed() == 0 {
		t.Error("cold index lookup charged no I/O")
	}
	clock.Reset()
	if _, err := ix.Lookup(25000, 0); err != nil {
		t.Fatal(err)
	}
	if clock.Elapsed() != 0 {
		t.Error("hot repeat lookup charged I/O")
	}
}
