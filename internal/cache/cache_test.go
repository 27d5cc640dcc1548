package cache

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/vector"
)

func batchOfRows(n int) *vector.Batch {
	xs := make([]int64, n)
	ss := make([]string, n)
	for i := range xs {
		xs[i] = int64(i)
		ss[i] = "abcdefgh"
	}
	return vector.NewBatch(vector.FromInt64(xs), vector.FromString(ss))
}

func TestNeverCacheDiscards(t *testing.T) {
	m := New(Config{Policy: NeverCache})
	m.Put("a", batchOfRows(10), FullSpan())
	if _, ok := m.Get("a", FullSpan()); ok {
		t.Error("NeverCache retained data")
	}
	if m.Contains("a", FullSpan()) {
		t.Error("NeverCache claims containment")
	}
	if m.Stats().Entries != 0 {
		t.Error("NeverCache has entries")
	}
}

func TestFileGranularHit(t *testing.T) {
	m := New(Config{Policy: LRU, Granularity: FileGranular})
	m.Put("a", batchOfRows(5), Span{Lo: 10, Hi: 20}) // span forced to Full
	if !m.Contains("a", Span{Lo: 0, Hi: 1000}) {
		t.Error("file-granular entry should cover any span")
	}
	b, ok := m.Get("a", Span{Lo: -5, Hi: 5})
	if !ok || b.Len() != 5 {
		t.Error("Get failed")
	}
	st := m.Stats()
	if st.Hits != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTupleGranularContainment(t *testing.T) {
	m := New(Config{Policy: LRU, Granularity: TupleGranular})
	m.Put("a", batchOfRows(5), Span{Lo: 100, Hi: 200})
	if !m.Contains("a", Span{Lo: 120, Hi: 180}) {
		t.Error("contained span rejected")
	}
	if m.Contains("a", Span{Lo: 50, Hi: 150}) {
		t.Error("partially covered span accepted — would return wrong data")
	}
	if m.Contains("a", FullSpan()) {
		t.Error("tuple entry cannot cover a full-span request")
	}
	if _, ok := m.Get("a", Span{Lo: 0, Hi: 500}); ok {
		t.Error("Get across wider span must miss")
	}
	if m.Stats().Misses != 1 {
		t.Errorf("miss not counted: %+v", m.Stats())
	}
}

func TestSpanContains(t *testing.T) {
	full := FullSpan()
	if !full.Contains(Span{Lo: 1, Hi: 2}) || !full.Contains(full) {
		t.Error("full span containment wrong")
	}
	s := Span{Lo: 10, Hi: 20}
	if s.Contains(full) {
		t.Error("bounded span cannot contain full")
	}
	if !s.Contains(Span{Lo: 10, Hi: 20}) || s.Contains(Span{Lo: 9, Hi: 20}) {
		t.Error("boundary containment wrong")
	}
}

func TestLRUEviction(t *testing.T) {
	one := batchOfRows(100).Bytes()
	m := New(Config{Policy: LRU, Granularity: FileGranular, MaxBytes: one*2 + 10})
	m.Put("a", batchOfRows(100), FullSpan())
	m.Put("b", batchOfRows(100), FullSpan())
	// Touch a so b is the LRU victim... (a most recent)
	if _, ok := m.Get("a", FullSpan()); !ok {
		t.Fatal("warm get failed")
	}
	m.Put("c", batchOfRows(100), FullSpan())
	if m.Contains("b", FullSpan()) {
		t.Error("LRU should have evicted b")
	}
	if !m.Contains("a", FullSpan()) || !m.Contains("c", FullSpan()) {
		t.Error("wrong entry evicted")
	}
	if m.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", m.Stats().Evictions)
	}
}

func TestPutReplaces(t *testing.T) {
	m := New(Config{Policy: LRU, Granularity: TupleGranular})
	m.Put("a", batchOfRows(5), Span{Lo: 0, Hi: 10})
	m.Put("a", batchOfRows(50), Span{Lo: 0, Hi: 100})
	if m.Stats().Entries != 1 {
		t.Errorf("entries = %d after replace", m.Stats().Entries)
	}
	b, ok := m.Get("a", Span{Lo: 0, Hi: 100})
	if !ok || b.Len() != 50 {
		t.Error("replacement not visible")
	}
}

func TestDropAndClear(t *testing.T) {
	m := New(Config{Policy: LRU, Granularity: FileGranular})
	m.Put("a", batchOfRows(5), FullSpan())
	m.Put("b", batchOfRows(5), FullSpan())
	m.Drop("a")
	if m.Contains("a", FullSpan()) {
		t.Error("dropped entry still present")
	}
	m.Clear()
	if m.Stats().Entries != 0 || m.Stats().BytesResident != 0 {
		t.Error("clear incomplete")
	}
}

func TestNilManagerSafe(t *testing.T) {
	var m *Manager
	m.Put("a", batchOfRows(1), FullSpan())
	if _, ok := m.Get("a", FullSpan()); ok {
		t.Error("nil manager returned data")
	}
	m.Drop("a")
	m.Clear()
	if m.Contains("a", FullSpan()) {
		t.Error("nil manager contains data")
	}
	_ = m.Stats()
}

func TestBudgetInvariantProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		m := New(Config{Policy: LRU, Granularity: FileGranular, MaxBytes: 2000})
		for i, s := range sizes {
			m.Put(fmt.Sprintf("f%d", i), batchOfRows(int(s)), FullSpan())
		}
		st := m.Stats()
		// Budget holds unless a single entry exceeds it (kept to stay useful).
		return st.BytesResident <= 2000 || st.Entries == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPolicyAndGranularityStrings(t *testing.T) {
	if NeverCache.String() != "never" || LRU.String() != "lru" {
		t.Error("policy names wrong")
	}
	if FileGranular.String() != "file" || TupleGranular.String() != "tuple" {
		t.Error("granularity names wrong")
	}
}

func TestStreamingPutAssemblesEntry(t *testing.T) {
	m := New(Config{Policy: LRU, Granularity: FileGranular})
	p := m.BeginPut("f1")
	if p == nil {
		t.Fatal("BeginPut refused a fresh URI")
	}
	p.Append(batchOfRows(3))
	p.Append(batchOfRows(2))
	// Invisible until committed.
	if _, ok := m.Get("f1", FullSpan()); ok {
		t.Fatal("pending entry visible before Commit")
	}
	p.Commit(FullSpan())
	b, ok := m.Get("f1", FullSpan())
	if !ok || b.Len() != 5 {
		t.Fatalf("committed entry has %d rows, want 5", b.Len())
	}
}

func TestStreamingPutIsolatedFromAppendedBatches(t *testing.T) {
	m := New(Config{Policy: LRU, Granularity: FileGranular})
	p := m.BeginPut("f1")
	src := batchOfRows(4)
	p.Append(src)
	src.Cols[0].Set(0, vector.Int64(-77)) // the flight's batch is mutated later
	p.Commit(FullSpan())
	b, _ := m.Get("f1", FullSpan())
	if b.Cols[0].Int64s()[0] != 0 {
		t.Error("streaming Put aliased the appended batch")
	}
}

// TestGetSharesAreCopyOnWrite pins the new boundary contract: Get hands
// out O(1) shares, and a consumer mutating its share (through the
// sanctioned mutation API) never corrupts the entry.
func TestGetSharesAreCopyOnWrite(t *testing.T) {
	m := New(Config{Policy: LRU, Granularity: FileGranular})
	m.Put("f1", batchOfRows(4), FullSpan())
	got, ok := m.Get("f1", FullSpan())
	if !ok {
		t.Fatal("miss")
	}
	got.Cols[0].Set(0, vector.Int64(-1))
	vals := got.Cols[0].MutableInt64s()
	for i := range vals {
		vals[i] = -9
	}
	again, _ := m.Get("f1", FullSpan())
	if again.Cols[0].Int64s()[0] != 0 {
		t.Error("cached entry corrupted through a consumer's share")
	}
}

func TestReservationBlocksDoubleInsert(t *testing.T) {
	m := New(Config{Policy: LRU, Granularity: FileGranular})
	p := m.BeginPut("f1")
	if p == nil {
		t.Fatal("BeginPut failed")
	}
	if m.BeginPut("f1") != nil {
		t.Error("second streaming insertion reserved an already reserved URI")
	}
	// A plain Put racing the streaming insertion is dropped.
	m.Put("f1", batchOfRows(9), FullSpan())
	if _, ok := m.Get("f1", FullSpan()); ok {
		t.Error("Put bypassed the reservation")
	}
	p.Append(batchOfRows(2))
	p.Commit(FullSpan())
	if b, ok := m.Get("f1", FullSpan()); !ok || b.Len() != 2 {
		t.Error("streaming insertion lost to the racing Put")
	}
	// Reservation released: both paths work again.
	if m.BeginPut("f1") == nil {
		t.Error("reservation not released by Commit")
	}
}

func TestAbortReleasesReservation(t *testing.T) {
	m := New(Config{Policy: LRU, Granularity: FileGranular})
	p := m.BeginPut("f1")
	p.Append(batchOfRows(3))
	p.Abort()
	if _, ok := m.Get("f1", FullSpan()); ok {
		t.Error("aborted insertion left an entry")
	}
	p2 := m.BeginPut("f1")
	if p2 == nil {
		t.Error("reservation not released by Abort")
	}
	p2.Abort()
	m.Put("f1", batchOfRows(1), FullSpan())
	if _, ok := m.Get("f1", FullSpan()); !ok {
		t.Error("Put blocked after Abort")
	}
}

func TestNilPendingIsSafe(t *testing.T) {
	never := New(Config{Policy: NeverCache})
	p := never.BeginPut("f1")
	if p != nil {
		t.Fatal("NeverCache manager handed out a pending insertion")
	}
	p.Append(batchOfRows(1)) // must not panic
	p.Commit(FullSpan())
	p.Abort()
	var nilMgr *Manager
	if nilMgr.BeginPut("x") != nil {
		t.Error("nil manager handed out a pending insertion")
	}
}

func TestEmptyCommitStoresNothing(t *testing.T) {
	m := New(Config{Policy: LRU, Granularity: FileGranular})
	p := m.BeginPut("f1")
	p.Commit(FullSpan())
	if st := m.Stats(); st.Entries != 0 {
		t.Errorf("empty commit stored %d entries", st.Entries)
	}
}

func TestDropInvalidatesPendingInsert(t *testing.T) {
	m := New(Config{Policy: LRU, Granularity: FileGranular})
	p := m.BeginPut("f1")
	p.Append(batchOfRows(3))
	// The underlying file changed mid-stream: the drop must win.
	m.Drop("f1")
	p.Commit(FullSpan())
	if _, ok := m.Get("f1", FullSpan()); ok {
		t.Error("Commit resurrected a dropped URI")
	}
	// The reservation is gone too: a fresh stream can start.
	p2 := m.BeginPut("f1")
	if p2 == nil {
		t.Fatal("drop did not release the reservation")
	}
	p2.Append(batchOfRows(1))
	p2.Commit(FullSpan())
	if b, ok := m.Get("f1", FullSpan()); !ok || b.Len() != 1 {
		t.Error("fresh stream after drop failed")
	}
}

func TestClearInvalidatesPendingInserts(t *testing.T) {
	m := New(Config{Policy: LRU, Granularity: FileGranular})
	p := m.BeginPut("f1")
	p.Append(batchOfRows(3))
	m.Clear()
	p.Commit(FullSpan())
	if st := m.Stats(); st.Entries != 0 {
		t.Errorf("pending insert repopulated a cleared cache: %d entries", st.Entries)
	}
}

// TestOnInvalidateHook pins the result-cache wiring contract: Drop and
// Clear fire the hook (Drop even for a URI that is not resident — it
// still means "the file changed"), while plain gets, puts and budget
// evictions never do.
func TestOnInvalidateHook(t *testing.T) {
	m := New(Config{Policy: LRU, Granularity: FileGranular, MaxBytes: 1})
	fired := 0
	m.SetOnInvalidate(func() { fired++ })

	m.Put("f1", batchOfRows(3), FullSpan())
	m.Put("f2", batchOfRows(3), FullSpan()) // evicts f1 (budget of 1 byte)
	m.Get("f1", FullSpan())
	if st := m.Stats(); st.Evictions == 0 {
		t.Fatal("test setup: no eviction happened")
	}
	if fired != 0 {
		t.Fatalf("hook fired %d times on put/get/evict, want 0", fired)
	}

	m.Drop("not-resident")
	if fired != 1 {
		t.Fatalf("hook fired %d times after Drop of a non-resident URI, want 1", fired)
	}
	m.Drop("f2")
	if fired != 2 {
		t.Fatalf("hook fired %d times after Drop, want 2", fired)
	}
	m.Clear()
	if fired != 3 {
		t.Fatalf("hook fired %d times after Clear, want 3", fired)
	}

	// A NeverCache manager carries the signal too.
	n := New(Config{Policy: NeverCache})
	n.SetOnInvalidate(func() { fired++ })
	n.Drop("f1")
	if fired != 4 {
		t.Fatal("NeverCache Drop did not fire the hook")
	}
}
