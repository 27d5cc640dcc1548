package storage

import (
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/vector"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	pool := NewBufferPool(128, NoCost(), nil)
	s, err := Open(t.TempDir(), pool)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func sampleCols() []Column {
	return []Column{
		{Name: "id", Kind: vector.KindInt64},
		{Name: "val", Kind: vector.KindFloat64},
		{Name: "tag", Kind: vector.KindString},
		{Name: "ts", Kind: vector.KindTime},
		{Name: "ok", Kind: vector.KindBool},
	}
}

func fillSample(t *testing.T, tbl *Table, n int) {
	t.Helper()
	a, err := tbl.NewAppender()
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, n)
	vals := make([]float64, n)
	tags := make([]string, n)
	tss := make([]int64, n)
	oks := make([]bool, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		vals[i] = float64(i) * 0.5
		tags[i] = []string{"alpha", "beta", "gamma"}[i%3]
		tss[i] = int64(i) * 1e9
		oks[i] = i%2 == 0
	}
	b := vector.NewBatch(
		vector.FromInt64(ids), vector.FromFloat64(vals),
		vector.FromString(tags), vector.FromTime(tss), vector.FromBool(oks),
	)
	if err := a.Append(b); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateAppendRead(t *testing.T) {
	s := newTestStore(t)
	tbl, err := s.Create("sample", sampleCols())
	if err != nil {
		t.Fatal(err)
	}
	fillSample(t, tbl, 100)
	if tbl.Rows() != 100 {
		t.Fatalf("rows = %d, want 100", tbl.Rows())
	}
	v, err := tbl.ReadColumn(0, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 10 || v.Int64s()[0] != 10 {
		t.Errorf("read ids wrong: %v", v.Int64s())
	}
	tags, err := tbl.ReadColumn(2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "beta", "gamma"}
	for i, w := range want {
		if tags.Strings()[i] != w {
			t.Errorf("tag[%d] = %q, want %q", i, tags.Strings()[i], w)
		}
	}
}

func TestReopenPersists(t *testing.T) {
	dir := t.TempDir()
	pool := NewBufferPool(128, NoCost(), nil)
	s, err := Open(dir, pool)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := s.Create("sample", sampleCols())
	if err != nil {
		t.Fatal(err)
	}
	fillSample(t, tbl, 50)
	s.Close()

	s2, err := Open(dir, NewBufferPool(128, NoCost(), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tbl2, ok := s2.Table("sample")
	if !ok {
		t.Fatal("table lost after reopen")
	}
	if tbl2.Rows() != 50 {
		t.Fatalf("rows after reopen = %d, want 50", tbl2.Rows())
	}
	v, err := tbl2.ReadColumn(2, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if v.Strings()[0] != "beta" {
		t.Errorf("string after reopen = %q, want beta", v.Strings()[0])
	}
}

func TestReadBatchAndRowsAt(t *testing.T) {
	s := newTestStore(t)
	tbl, _ := s.Create("sample", sampleCols())
	fillSample(t, tbl, 64)
	b, err := tbl.ReadBatch([]int{0, 1}, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 64 || b.Cols[1].Float64s()[2] != 1.0 {
		t.Error("ReadBatch wrong")
	}
	pb, err := tbl.ReadRowsAt([]int{0, 2}, []int64{5, 60, 1})
	if err != nil {
		t.Fatal(err)
	}
	if pb.Cols[0].Int64s()[1] != 60 {
		t.Errorf("point read = %d, want 60", pb.Cols[0].Int64s()[1])
	}
}

func TestReadOutOfRange(t *testing.T) {
	s := newTestStore(t)
	tbl, _ := s.Create("sample", sampleCols())
	fillSample(t, tbl, 10)
	if _, err := tbl.ReadColumn(0, 0, 11); err == nil {
		t.Error("expected error for out-of-range read")
	}
	if _, err := tbl.ReadColumn(0, -1, 5); err == nil {
		t.Error("expected error for negative from")
	}
}

func TestTruncate(t *testing.T) {
	s := newTestStore(t)
	tbl, _ := s.Create("sample", sampleCols())
	fillSample(t, tbl, 10)
	if err := tbl.Truncate(); err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 0 {
		t.Fatalf("rows after truncate = %d", tbl.Rows())
	}
	fillSample(t, tbl, 5)
	if tbl.Rows() != 5 {
		t.Fatalf("rows after refill = %d", tbl.Rows())
	}
	v, err := tbl.ReadColumn(0, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int64s()[4] != 4 {
		t.Error("data wrong after truncate+refill")
	}
}

func TestDropTable(t *testing.T) {
	s := newTestStore(t)
	tbl, _ := s.Create("gone", sampleCols()[:1])
	dir := tbl.dir
	if err := s.Drop("gone"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Table("gone"); ok {
		t.Error("table still visible after drop")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Error("table directory still exists after drop")
	}
	if err := s.Drop("gone"); err == nil {
		t.Error("double drop should fail")
	}
}

func TestCreateValidation(t *testing.T) {
	s := newTestStore(t)
	if _, err := s.Create("", sampleCols()); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := s.Create("x", nil); err == nil {
		t.Error("no columns accepted")
	}
	if _, err := s.Create("x", []Column{{Name: "a", Kind: vector.KindInt64}, {Name: "a", Kind: vector.KindInt64}}); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := s.Create("dup", sampleCols()[:1]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("dup", sampleCols()[:1]); err == nil {
		t.Error("duplicate table accepted")
	}
}

func TestColdHotAccounting(t *testing.T) {
	var clock Clock
	pool := NewBufferPool(1024, HDD7200(), &clock)
	s, err := Open(t.TempDir(), pool)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tbl, _ := s.Create("t", []Column{{Name: "x", Kind: vector.KindInt64}})
	a, _ := tbl.NewAppender()
	xs := make([]int64, 100000)
	for i := range xs {
		xs[i] = int64(i)
	}
	if err := a.Append(vector.NewBatch(vector.FromInt64(xs))); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	pool.Flush()
	clock.Reset()
	if _, err := tbl.ReadColumn(0, 0, 100000); err != nil {
		t.Fatal(err)
	}
	cold := clock.Elapsed()
	if cold == 0 {
		t.Fatal("cold read charged no I/O time")
	}

	clock.Reset()
	if _, err := tbl.ReadColumn(0, 0, 100000); err != nil {
		t.Fatal(err)
	}
	hot := clock.Elapsed()
	if hot != 0 {
		t.Fatalf("hot read charged %v, want 0", hot)
	}
}

func TestPoolEviction(t *testing.T) {
	var clock Clock
	pool := NewBufferPool(2, HDD7200(), &clock) // tiny pool: 2 pages
	s, err := Open(t.TempDir(), pool)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tbl, _ := s.Create("t", []Column{{Name: "x", Kind: vector.KindInt64}})
	a, _ := tbl.NewAppender()
	xs := make([]int64, 5*PageSize/8) // 5 pages
	a.Append(vector.NewBatch(vector.FromInt64(xs)))
	a.Close()

	if _, err := tbl.ReadColumn(0, 0, int64(len(xs))); err != nil {
		t.Fatal(err)
	}
	// Nothing was flushed or invalidated, so every miss not evicted is
	// still resident.
	st := pool.Stats()
	if got := st.Misses - st.Evictions; got > 2 {
		t.Errorf("pool holds %d pages, cap 2", got)
	}
	if st.Evictions == 0 {
		t.Error("expected evictions with tiny pool")
	}
}

func TestSequentialVsRandomSeeks(t *testing.T) {
	var clock Clock
	pool := NewBufferPool(1024, HDD7200(), &clock)
	s, _ := Open(t.TempDir(), pool)
	defer s.Close()
	tbl, _ := s.Create("t", []Column{{Name: "x", Kind: vector.KindInt64}})
	a, _ := tbl.NewAppender()
	xs := make([]int64, 10*PageSize/8)
	a.Append(vector.NewBatch(vector.FromInt64(xs)))
	a.Close()

	pool.Flush()
	before := pool.Stats().SeeksPayed
	if _, err := tbl.ReadColumn(0, 0, int64(len(xs))); err != nil {
		t.Fatal(err)
	}
	seq := pool.Stats().SeeksPayed - before
	if seq > 2 {
		t.Errorf("sequential scan payed %d seeks, want ≤2", seq)
	}

	pool.Flush()
	before = pool.Stats().SeeksPayed
	rows := int64(len(xs))
	for i := int64(0); i < 5; i++ {
		// jump around: one row from each of the 10 pages, backwards
		if _, err := tbl.ReadRowsAt([]int{0}, []int64{rows - 1 - i*PageSize/8}); err != nil {
			t.Fatal(err)
		}
	}
	if rnd := pool.Stats().SeeksPayed - before; rnd < 4 {
		t.Errorf("random access payed %d seeks, want ≥4", rnd)
	}
}

func TestDictRoundTrip(t *testing.T) {
	d := NewDict()
	if d.Code("a") != 0 || d.Code("b") != 1 || d.Code("a") != 0 {
		t.Fatal("dict code assignment wrong")
	}
	if c, ok := d.CodeIfPresent("b"); !ok || c != 1 {
		t.Error("CodeIfPresent failed for present value")
	}
	if _, ok := d.CodeIfPresent("zzz"); ok {
		t.Error("CodeIfPresent found absent value")
	}
	path := filepath.Join(t.TempDir(), "d.json")
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadDict(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := d2.Resolve([]int64{1}); d2.Len() != 2 || err != nil || got[0] != "b" {
		t.Error("dict lost data across save/load")
	}
	if _, err := d2.Resolve([]int64{0, 2}); err == nil {
		t.Error("Resolve accepted a code past the dictionary")
	}
}

func TestDictRoundTripProperty(t *testing.T) {
	f := func(ss []string) bool {
		d := NewDict()
		codes := make([]int64, len(ss))
		for i, s := range ss {
			codes[i] = d.Code(s)
		}
		got, err := d.Resolve(codes)
		if err != nil {
			return false
		}
		for i, s := range ss {
			if got[i] != s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStorageRoundTripProperty(t *testing.T) {
	s := newTestStore(t)
	tbl, err := s.Create("prop", []Column{
		{Name: "i", Kind: vector.KindInt64},
		{Name: "f", Kind: vector.KindFloat64},
		{Name: "s", Kind: vector.KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	f := func(is []int64, fs []float64, ss []string) bool {
		n := len(is)
		if len(fs) < n {
			n = len(fs)
		}
		if len(ss) < n {
			n = len(ss)
		}
		if n == 0 {
			return true
		}
		count++
		start := tbl.Rows()
		a, err := tbl.NewAppender()
		if err != nil {
			return false
		}
		err = a.Append(vector.NewBatch(
			vector.FromInt64(is[:n]), vector.FromFloat64(fs[:n]), vector.FromString(ss[:n])))
		if err != nil {
			return false
		}
		if err := a.Close(); err != nil {
			return false
		}
		got, err := tbl.ReadBatch([]int{0, 1, 2}, start, start+int64(n))
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if got.Cols[0].Int64s()[i] != is[i] || got.Cols[2].Strings()[i] != ss[i] {
				return false
			}
			gf := got.Cols[1].Float64s()[i]
			if gf != fs[i] && !(gf != gf && fs[i] != fs[i]) { // NaN-safe
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
	if count == 0 {
		t.Skip("quick generated no non-empty cases")
	}
}

func TestChargeMath(t *testing.T) {
	var c Clock
	m := DiskModel{SeekTime: 10 * time.Millisecond, TransferPerPage: time.Millisecond}
	m.ChargeRead(&c, 3, false)
	if c.Elapsed() != 13*time.Millisecond {
		t.Errorf("charge = %v, want 13ms", c.Elapsed())
	}
	c.Reset()
	m.ChargeRead(&c, 3, true)
	if c.Elapsed() != 3*time.Millisecond {
		t.Errorf("sequential charge = %v, want 3ms", c.Elapsed())
	}
	c.Reset()
	m.ChargeWrite(&c, PageSize+1)
	if c.Elapsed() != 2*time.Millisecond {
		t.Errorf("write charge = %v, want 2ms", c.Elapsed())
	}
	m.ChargeRead(nil, 5, false) // must not panic
	m.ChargeWrite(nil, 100)
}

func TestSizeOnDisk(t *testing.T) {
	s := newTestStore(t)
	tbl, _ := s.Create("t", []Column{{Name: "x", Kind: vector.KindInt64}})
	if tbl.SizeOnDisk() != 0 {
		t.Errorf("empty table size = %d", tbl.SizeOnDisk())
	}
	fill := make([]int64, 1000)
	a, _ := tbl.NewAppender()
	a.Append(vector.NewBatch(vector.FromInt64(fill)))
	a.Close()
	if got := tbl.SizeOnDisk(); got != 8000 {
		t.Errorf("size = %d, want 8000", got)
	}
	if s.SizeOnDisk() != 8000 {
		t.Errorf("store size = %d, want 8000", s.SizeOnDisk())
	}
}

func TestAppendSchemaMismatch(t *testing.T) {
	s := newTestStore(t)
	tbl, _ := s.Create("t", []Column{{Name: "x", Kind: vector.KindInt64}})
	a, _ := tbl.NewAppender()
	defer a.Close()
	if err := a.Append(vector.NewBatch(vector.FromString([]string{"no"}))); err == nil {
		t.Error("kind mismatch accepted")
	}
	if err := a.Append(vector.NewBatch(vector.FromInt64([]int64{1}), vector.FromInt64([]int64{2}))); err == nil {
		t.Error("column count mismatch accepted")
	}
}

func TestAppenderClosedRejects(t *testing.T) {
	s := newTestStore(t)
	tbl, _ := s.Create("t", []Column{{Name: "x", Kind: vector.KindInt64}})
	a, _ := tbl.NewAppender()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Append(vector.NewBatch(vector.FromInt64([]int64{1}))); err == nil {
		t.Error("append after close accepted")
	}
	if err := a.Close(); err != nil {
		t.Error("double close should be a no-op")
	}
}
