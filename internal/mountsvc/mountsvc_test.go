package mountsvc

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/vector"
)

// slowAdapter is a synthetic format: each "file" yields nBatches batches
// of batchLen rows. Extraction counts are tracked and each extraction
// can be gated on a channel so tests can hold flights open while more
// requests arrive.
type slowAdapter struct {
	nBatches    int
	batchLen    int
	extractions atomic.Int64
	streamed    atomic.Int64  // batches successfully emitted
	gate        chan struct{} // when non-nil, each extraction waits here once
	stepGate    chan struct{} // when non-nil, each batch waits for one token
	failWith    error
}

func (a *slowAdapter) Name() string { return "slow" }
func (a *slowAdapter) Tables() (f, r, d catalog.TableDef) {
	d = catalog.TableDef{
		Name: "SLOW_D", Kind: catalog.ActualData,
		Columns: []storage.Column{
			{Name: "uri", Kind: vector.KindString},
			{Name: "record_id", Kind: vector.KindInt64},
			{Name: "t", Kind: vector.KindTime},
			{Name: "v", Kind: vector.KindFloat64},
		},
	}
	return f, r, d
}
func (a *slowAdapter) URIColumn() string      { return "uri" }
func (a *slowAdapter) RecordIDColumn() string { return "record_id" }
func (a *slowAdapter) DataSpanColumn() string { return "t" }
func (a *slowAdapter) RecordSpan(rm catalog.RecordMeta) (int64, int64, bool) {
	return rm.Values[0].I, rm.Values[1].I, true
}
func (a *slowAdapter) ExtractMetadata(path, uri string) (catalog.FileMeta, []catalog.RecordMeta, error) {
	return catalog.FileMeta{URI: uri}, nil, nil
}
func (a *slowAdapter) Mount(path, uri string, keep func(catalog.RecordMeta) bool) (*vector.Batch, error) {
	return catalog.CollectMount(a, path, uri, keep)
}
func (a *slowAdapter) MountStream(path, uri string, keep func(catalog.RecordMeta) bool, batchRows int, emit func(*vector.Batch) error) error {
	a.extractions.Add(1)
	if a.gate != nil {
		<-a.gate
	}
	if a.failWith != nil {
		return a.failWith
	}
	for rec := 0; rec < a.nBatches; rec++ {
		rm := catalog.RecordMeta{
			URI: uri, RecordID: int64(rec),
			Values: []vector.Value{vector.Time(int64(rec) * 100), vector.Time(int64(rec)*100 + 99)},
		}
		if keep != nil && !keep(rm) {
			continue
		}
		var uris []string
		var ids, times []int64
		var vals []float64
		for i := 0; i < a.batchLen; i++ {
			uris = append(uris, uri)
			ids = append(ids, int64(rec))
			times = append(times, int64(rec)*100+int64(i))
			vals = append(vals, float64(rec*1000+i))
		}
		b := vector.NewBatch(
			vector.FromString(uris), vector.FromInt64(ids),
			vector.FromTime(times), vector.FromFloat64(vals),
		)
		if a.stepGate != nil {
			<-a.stepGate
		}
		if err := emit(b); err != nil {
			return err
		}
		a.streamed.Add(1)
	}
	return nil
}

// testFiles creates size-controlled dummy files (the service only stats
// and opens them; the fake adapter never reads the contents).
func testFiles(t *testing.T, sizes map[string]int) string {
	t.Helper()
	dir := t.TempDir()
	for name, size := range sizes {
		if err := os.WriteFile(filepath.Join(dir, name), make([]byte, size), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func drain(t *testing.T, c Cursor) int {
	t.Helper()
	rows, err := drainCount(c)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// drainCount is the goroutine-safe form of drain.
func drainCount(c Cursor) (int, error) {
	rows := 0
	for {
		b, err := c.Next()
		if err != nil {
			return rows, err
		}
		if b == nil {
			return rows, nil
		}
		rows += b.Len()
	}
}

func TestSingleFlightCoalesces(t *testing.T) {
	ad := &slowAdapter{nBatches: 4, batchLen: 10, gate: make(chan struct{})}
	dir := testFiles(t, map[string]int{"a.slow": 1 << 12})
	svc := New(Config{RepoDir: dir})

	const k = 8
	var mounted, joined atomic.Int64
	cursors := make([]Cursor, k)
	for i := range cursors {
		cur, err := svc.Mount(Request{
			URI: "a.slow", Adapter: ad, Span: cache.FullSpan(),
			Observe: func(d Delta) {
				if d.FileMounted {
					mounted.Add(1)
				}
				if d.SingleFlight {
					joined.Add(1)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		cursors[i] = cur
	}
	close(ad.gate) // all k requests are attached; let the extraction run

	var wg sync.WaitGroup
	rows := make([]int, k)
	for i, cur := range cursors {
		wg.Add(1)
		go func(i int, cur Cursor) {
			defer wg.Done()
			rows[i], _ = drainCount(cur)
		}(i, cur)
	}
	wg.Wait()

	if got := ad.extractions.Load(); got != 1 {
		t.Errorf("extractions = %d, want 1", got)
	}
	for i, n := range rows {
		if n != 40 {
			t.Errorf("cursor %d saw %d rows, want 40", i, n)
		}
	}
	if mounted.Load() != 1 || joined.Load() != k-1 {
		t.Errorf("mounted=%d joined=%d, want 1 and %d", mounted.Load(), joined.Load(), k-1)
	}
	st := svc.Stats()
	if st.FlightsStarted != 1 || st.SingleFlightHits != k-1 {
		t.Errorf("service stats = %+v", st)
	}
}

func TestSpanContainmentJoining(t *testing.T) {
	ad := &slowAdapter{nBatches: 4, batchLen: 10, gate: make(chan struct{})}
	dir := testFiles(t, map[string]int{"a.slow": 1 << 12})
	svc := New(Config{RepoDir: dir})

	wide, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.Span{Lo: 0, Hi: 399}})
	if err != nil {
		t.Fatal(err)
	}
	// Narrower span rides the wide flight; a wider one cannot.
	narrow, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.Span{Lo: 100, Hi: 199}})
	if err != nil {
		t.Fatal(err)
	}
	full, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	close(ad.gate)
	if got := drain(t, wide); got != 40 {
		t.Errorf("wide rows = %d", got)
	}
	if got := drain(t, narrow); got != 40 {
		t.Errorf("narrow rows = %d (must see the containing flight's batches)", got)
	}
	if got := drain(t, full); got != 40 {
		t.Errorf("full rows = %d", got)
	}
	// wide+narrow shared one flight; full needed its own.
	if got := ad.extractions.Load(); got != 2 {
		t.Errorf("extractions = %d, want 2", got)
	}
}

func TestBudgetBoundsInFlightBytes(t *testing.T) {
	const fileSize = 1000
	sizes := make(map[string]int)
	names := []string{"a.slow", "b.slow", "c.slow", "d.slow", "e.slow", "f.slow"}
	for _, n := range names {
		sizes[n] = fileSize
	}
	dir := testFiles(t, sizes)
	ad := &slowAdapter{nBatches: 2, batchLen: 64}
	// Budget fits one and a half files: at most one flight at a time.
	svc := New(Config{RepoDir: dir, BudgetBytes: fileSize * 3 / 2})

	var wg sync.WaitGroup
	for _, name := range names {
		cur, err := svc.Mount(Request{URI: name, Adapter: ad, Span: cache.FullSpan()})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(cur Cursor) {
			defer wg.Done()
			drainCount(cur)
		}(cur)
	}
	wg.Wait()
	st := svc.Stats()
	if st.PeakInFlightBytes > fileSize*3/2 {
		t.Errorf("peak in-flight bytes %d exceeded budget %d", st.PeakInFlightBytes, fileSize*3/2)
	}
	if st.InFlightBytes != 0 {
		t.Errorf("in-flight bytes %d not released", st.InFlightBytes)
	}
	if st.FlightsStarted != int64(len(names)) {
		t.Errorf("flights = %d, want %d", st.FlightsStarted, len(names))
	}
}

func TestOversizedFileAdmittedAlone(t *testing.T) {
	dir := testFiles(t, map[string]int{"big.slow": 4000, "small.slow": 100})
	ad := &slowAdapter{nBatches: 1, batchLen: 8}
	svc := New(Config{RepoDir: dir, BudgetBytes: 1000})
	for _, name := range []string{"big.slow", "small.slow"} {
		cur, err := svc.Mount(Request{URI: name, Adapter: ad, Span: cache.FullSpan()})
		if err != nil {
			t.Fatal(err)
		}
		if got := drain(t, cur); got != 8 {
			t.Errorf("%s rows = %d", name, got)
		}
	}
	if st := svc.Stats(); st.InFlightBytes != 0 {
		t.Errorf("in-flight bytes %d not released", st.InFlightBytes)
	}
}

func TestWaiterCancelOthersStillServed(t *testing.T) {
	ad := &slowAdapter{nBatches: 4, batchLen: 10, gate: make(chan struct{})}
	dir := testFiles(t, map[string]int{"a.slow": 1 << 12})
	svc := New(Config{RepoDir: dir})

	quitter, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	stayer, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	quitter.Close() // aborts before the extraction even starts
	close(ad.gate)
	if got := drain(t, stayer); got != 40 {
		t.Errorf("surviving waiter saw %d rows, want 40", got)
	}
	if b, err := quitter.Next(); b != nil || err != nil {
		t.Errorf("closed cursor Next = (%v, %v), want (nil, nil)", b, err)
	}
}

// TestAbandonedFlightStopsMidFile is the cancel-aware-flight contract:
// when every waiter closes its cursor, the extraction is stopped at the
// next batch boundary, the budget released, and any partial cache fill
// aborted — instead of decoding the rest of a file nobody will read.
func TestAbandonedFlightStopsMidFile(t *testing.T) {
	const fileSize = 1000
	ad := &slowAdapter{nBatches: 50, batchLen: 8, stepGate: make(chan struct{})}
	dir := testFiles(t, map[string]int{"a.slow": fileSize})
	mgr := cache.New(cache.Config{Policy: cache.LRU, Granularity: cache.FileGranular})
	svc := New(Config{RepoDir: dir, BudgetBytes: fileSize * 4, Cache: mgr})

	c1, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	// Let two batches fully through, then abandon the flight entirely.
	ad.stepGate <- struct{}{}
	ad.stepGate <- struct{}{}
	for deadline := time.Now().Add(5 * time.Second); ad.streamed.Load() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("adapter never emitted the first two batches")
		}
		time.Sleep(time.Millisecond)
	}
	c1.Close()
	c2.Close()
	// The third emit runs into the refcount check and stops the stream.
	ad.stepGate <- struct{}{}

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := svc.Stats()
		if st.FlightsCancelled == 1 && st.InFlightBytes == 0 && st.ReplayBytes == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight not cancelled/released: stats %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if got := ad.streamed.Load(); got >= 50 {
		t.Errorf("extraction ran to completion (%d batches) despite abandonment", got)
	}
	if _, ok := mgr.Get("a.slow", cache.FullSpan()); ok {
		t.Error("abandoned flight committed a partial cache entry")
	}
	// The service stays usable for the same URI afterwards.
	ad2 := &slowAdapter{nBatches: 2, batchLen: 4}
	cur, err := svc.Mount(Request{URI: "a.slow", Adapter: ad2, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, cur); got != 8 {
		t.Errorf("post-cancel mount rows = %d, want 8", got)
	}
}

// TestReplayBytesTrackedWithBatchBytes pins the replay gauge to the
// vector-level size estimate rather than any ad-hoc guess. A rider that
// has read nothing pins the window, so every batch the reader took is
// still resident.
func TestReplayBytesTrackedWithBatchBytes(t *testing.T) {
	dir := testFiles(t, map[string]int{"a.slow": 64})
	ad := &slowAdapter{nBatches: 2, batchLen: 4, gate: make(chan struct{})}
	svc := New(Config{RepoDir: dir})
	cur, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	rider, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	close(ad.gate)
	var want int64
	for i := 0; i < 2; i++ {
		b, err := cur.Next()
		if err != nil || b == nil {
			t.Fatalf("batch %d: (%v, %v)", i, b, err)
		}
		want += b.Bytes()
	}
	if got := svc.Stats().ReplayBytes; got != want {
		t.Errorf("ReplayBytes = %d, want %d (sum of Batch.Bytes)", got, want)
	}
	if b, err := cur.Next(); b != nil || err != nil {
		t.Fatalf("expected end of stream, got (%v, %v)", b, err)
	}
	if got := svc.Stats().ReplayBytes; got != want {
		t.Errorf("ReplayBytes = %d while the rider pins the window, want %d", got, want)
	}
	drain(t, rider)
	st := svc.Stats()
	if st.ReplayBytes != 0 {
		t.Errorf("ReplayBytes = %d after last cursor drained, want 0", st.ReplayBytes)
	}
	if st.PeakReplayBytes != want {
		t.Errorf("PeakReplayBytes = %d, want %d", st.PeakReplayBytes, want)
	}
}

// TestFlightSharesIsolateWaiters: two waiters of one flight mutate the
// batches they receive; neither observes the other's writes.
func TestFlightSharesIsolateWaiters(t *testing.T) {
	dir := testFiles(t, map[string]int{"a.slow": 64})
	ad := &slowAdapter{nBatches: 1, batchLen: 4}
	svc := New(Config{RepoDir: dir})
	c1, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := c1.Next()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := c2.Next()
	if err != nil {
		t.Fatal(err)
	}
	b1.Cols[3].Set(0, vector.Float64(-1e9))
	if got := b2.Cols[3].Get(0).F; got == -1e9 {
		t.Error("one waiter's mutation leaked into another waiter's batch")
	}
}

func TestFlightErrorReachesAllWaiters(t *testing.T) {
	boom := errors.New("boom")
	ad := &slowAdapter{nBatches: 2, batchLen: 4, gate: make(chan struct{}), failWith: boom}
	dir := testFiles(t, map[string]int{"a.slow": 64})
	svc := New(Config{RepoDir: dir})
	c1, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	close(ad.gate)
	for i, c := range []Cursor{c1, c2} {
		if _, err := c.Next(); !errors.Is(err, boom) {
			t.Errorf("waiter %d got %v, want the extraction error", i, err)
		}
	}
}

func TestMissingFileErrors(t *testing.T) {
	svc := New(Config{RepoDir: t.TempDir()})
	if _, err := svc.Mount(Request{URI: "nope.slow", Adapter: &slowAdapter{}}); err == nil {
		t.Error("mount of missing file succeeded")
	}
}

func TestFileGranularFlightFillsCacheAndShortCircuits(t *testing.T) {
	ad := &slowAdapter{nBatches: 4, batchLen: 10}
	dir := testFiles(t, map[string]int{"a.slow": 1 << 12})
	mgr := cache.New(cache.Config{Policy: cache.LRU, Granularity: cache.FileGranular})
	svc := New(Config{RepoDir: dir, Cache: mgr})

	cur, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.Span{Lo: 0, Hi: 10}})
	if err != nil {
		t.Fatal(err)
	}
	// File-granular caching forces a full extraction despite the span.
	if got := drain(t, cur); got != 40 {
		t.Errorf("rows = %d, want the full 40 under file-granular caching", got)
	}
	if bs, ok := mgr.Get("a.slow", cache.FullSpan()); !ok || len(bs) != 4 {
		t.Fatalf("flight did not stream the whole file into the cache")
	}

	// A second request is served from the cache without extracting.
	var fromCache atomic.Int64
	cur2, err := svc.Mount(Request{
		URI: "a.slow", Adapter: ad, Span: cache.FullSpan(), BatchRows: 16,
		Observe: func(d Delta) {
			if d.FromCache {
				fromCache.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, cur2); got != 40 {
		t.Errorf("cache-served rows = %d", got)
	}
	if ad.extractions.Load() != 1 || fromCache.Load() != 1 {
		t.Errorf("extractions=%d fromCache=%d, want 1 and 1", ad.extractions.Load(), fromCache.Load())
	}
}

// TestTupleGranularFlightFillsItsSpan: under tuple granularity the
// flight is the cache's writer too, and the entry holds exactly the rows
// of the flight's span — records outside it are pruned unread, and a
// record the span cuts keeps only its rows inside.
func TestTupleGranularFlightFillsItsSpan(t *testing.T) {
	ad := &slowAdapter{nBatches: 4, batchLen: 10}
	dir := testFiles(t, map[string]int{"a.slow": 1 << 12})
	mgr := cache.New(cache.Config{Policy: cache.LRU, Granularity: cache.TupleGranular})
	svc := New(Config{RepoDir: dir, Cache: mgr})

	span := cache.Span{Lo: 105, Hi: 205}
	cur, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: span})
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, cur); got != 20 {
		t.Errorf("rows = %d, want records 1 and 2 whole (20)", got)
	}
	bs, ok := mgr.Get("a.slow", span)
	if !ok {
		t.Fatal("flight did not fill a tuple entry")
	}
	var ts []int64
	for _, b := range bs {
		ts = append(ts, b.Cols[2].Int64s()...)
	}
	want := []int64{105, 106, 107, 108, 109, 200, 201, 202, 203, 204, 205}
	if !reflect.DeepEqual(ts, want) {
		t.Errorf("entry span column = %v, want %v", ts, want)
	}
	if mgr.Contains("a.slow", cache.FullSpan()) {
		t.Error("tuple entry covers the whole file")
	}
}

func TestOnMountSeesPreFilterBatches(t *testing.T) {
	ad := &slowAdapter{nBatches: 4, batchLen: 10}
	dir := testFiles(t, map[string]int{"a.slow": 1 << 12})
	var hookRows atomic.Int64
	svc := New(Config{RepoDir: dir, OnMount: func(uri string, b *vector.Batch) {
		hookRows.Add(int64(b.Len()))
	}})
	// Span keeps only record 1: the hook must still see every kept
	// record's rows exactly once.
	cur, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.Span{Lo: 100, Hi: 199}})
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, cur); got != 10 {
		t.Errorf("rows = %d, want 10 (three records span-pruned)", got)
	}
	if hookRows.Load() != 10 {
		t.Errorf("hook saw %d rows, want 10", hookRows.Load())
	}
}

func TestModeledIOChargedOncePerFlight(t *testing.T) {
	ad := &slowAdapter{nBatches: 1, batchLen: 4, gate: make(chan struct{})}
	dir := testFiles(t, map[string]int{"a.slow": int(storage.PageSize) * 3})
	clock := &storage.Clock{}
	pool := storage.NewBufferPool(64, storage.HDD7200(), clock)
	svc := New(Config{RepoDir: dir, Pool: pool})

	c1, _ := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	c2, _ := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	close(ad.gate)
	drain(t, c1)
	drain(t, c2)
	if got := pool.Stats().Misses; got != 3 {
		t.Errorf("pages read = %d, want 3 (one flight, one touch)", got)
	}
}

// waitStat polls the service until cond(Stats()) holds.
func waitStat(t *testing.T, svc *Service, what string, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(svc.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: stats %+v", what, svc.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// holdBudget mounts a file and leaves its cursor unread until the
// flight is admitted: a cursor that has read nothing pins every batch,
// so the flight's budget bytes stay held (with no threshold nothing
// waits for it). The returned cursor's first Next drains the file and
// releases them.
func holdBudget(t *testing.T, svc *Service, ad *slowAdapter, uri string) Cursor {
	t.Helper()
	cur, err := svc.Mount(Request{URI: uri, Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	waitStat(t, svc, "holder never admitted", func(st Stats) bool { return st.InFlightBytes > 0 })
	return drainingCursor{cur}
}

// drainingCursor reads its whole stream in one Next.
type drainingCursor struct{ Cursor }

func (c drainingCursor) Next() (*vector.Batch, error) {
	for {
		if b, err := c.Cursor.Next(); b == nil || err != nil {
			return b, err
		}
	}
}

// TestBudgetWaitCancellable is the satellite-1 regression at the
// service level: a query cancelled while its mount is blocked on the
// byte budget returns promptly through its cursor, leaks no budget
// bytes it never held, and is counted in Stats.
func TestBudgetWaitCancellable(t *testing.T) {
	const fileSize = 1000
	dir := testFiles(t, map[string]int{"a.slow": fileSize, "b.slow": fileSize})
	ad := &slowAdapter{nBatches: 2, batchLen: 4}
	svc := New(Config{RepoDir: dir, BudgetBytes: fileSize * 3 / 2})

	holder := holdBudget(t, svc, ad, "a.slow")

	ctx, cancel := context.WithCancel(context.Background())
	blocked, err := svc.Mount(Request{
		URI: "b.slow", Adapter: ad, Span: cache.FullSpan(),
		Ctx: ctx, Session: "victim",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStat(t, svc, "mount never queued on the budget", func(st Stats) bool {
		return st.QueueDepth == 1
	})
	cancel()

	// The cursor must observe the cancellation promptly, not hang.
	got := make(chan error, 1)
	go func() {
		_, err := blocked.Next()
		got <- err
	}()
	select {
	case err := <-got:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cursor error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled budget wait hung")
	}

	if got := svc.Stats().InFlightBytes; got != fileSize {
		t.Errorf("in-flight = %d, want the holder's %d only (cancelled waiter must hold nothing)",
			got, fileSize)
	}
	if got := svc.Stats().WaiterCancels; got != 1 {
		t.Errorf("WaiterCancels = %d, want 1", got)
	}
	// The sole waiter left, so the flight is abandoned and its queued
	// admission cancelled (asynchronously, via the abandonment watcher).
	waitStat(t, svc, "admission wait never cancelled", func(st Stats) bool {
		return st.BudgetCancelled == 1 && st.PerSession["victim"].Cancelled == 1
	})

	// The budget is healthy: drain the holder and remount b.
	if b, err := holder.Next(); b != nil || err != nil {
		t.Fatalf("holder drain: (%v, %v)", b, err)
	}
	cur, err := svc.Mount(Request{URI: "b.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	if rows := drain(t, cur); rows != 8 {
		t.Errorf("post-cancel remount rows = %d, want 8", rows)
	}
	if got := svc.Stats().InFlightBytes; got != 0 {
		t.Errorf("in-flight bytes %d not released", got)
	}
}

// TestCancelledLeaderDoesNotPoisonJoiners: cancellation is per-waiter.
// A joiner riding a flight whose LEADING request's context dies must
// still receive the whole stream — the flight's admission wait and
// extraction belong to all its waiters, not to the leader's lifecycle.
func TestCancelledLeaderDoesNotPoisonJoiners(t *testing.T) {
	const fileSize = 1000
	dir := testFiles(t, map[string]int{"hold.slow": fileSize, "a.slow": fileSize})
	adHold := &slowAdapter{nBatches: 2, batchLen: 4}
	ad := &slowAdapter{nBatches: 2, batchLen: 10}
	svc := New(Config{RepoDir: dir, BudgetBytes: fileSize * 3 / 2})

	// The holder keeps the budget full so the led flight queues.
	holder := holdBudget(t, svc, adHold, "hold.slow")

	ctx, cancel := context.WithCancel(context.Background())
	leader, err := svc.Mount(Request{
		URI: "a.slow", Adapter: ad, Span: cache.FullSpan(),
		Ctx: ctx, Session: "leader",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStat(t, svc, "led flight never queued", func(st Stats) bool { return st.QueueDepth == 1 })
	joiner, err := svc.Mount(Request{
		URI: "a.slow", Adapter: ad, Span: cache.FullSpan(), Session: "joiner",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().SingleFlightHits; got != 1 {
		t.Fatalf("joiner did not join the queued flight (hits=%d)", got)
	}

	// Kill the leader while the shared flight is still budget-blocked.
	cancel()
	if _, err := leader.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader got %v, want context.Canceled", err)
	}
	// The joiner must be untouched: release the budget and drain fully.
	if b, err := holder.Next(); b != nil || err != nil {
		t.Fatalf("holder drain: (%v, %v)", b, err)
	}
	done := make(chan struct{})
	var rows int
	var joinErr error
	go func() {
		rows, joinErr = drainCount(joiner)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("joiner hung after the leader was cancelled")
	}
	if joinErr != nil {
		t.Fatalf("joiner failed with the leader's cancellation: %v", joinErr)
	}
	if rows != 20 {
		t.Errorf("joiner rows = %d, want 20", rows)
	}
	if got := svc.Stats().InFlightBytes; got != 0 {
		t.Errorf("in-flight bytes %d, want 0", got)
	}
}

// TestAbandonedWaiterLeavesAdmissionQueue: a flight whose only waiter
// closes its cursor while the flight is still queued on the budget must
// leave the queue (not extract, not hold bytes) so later mounts flow.
func TestAbandonedWaiterLeavesAdmissionQueue(t *testing.T) {
	const fileSize = 1000
	dir := testFiles(t, map[string]int{"a.slow": fileSize, "b.slow": fileSize})
	ad := &slowAdapter{nBatches: 2, batchLen: 4}
	svc := New(Config{RepoDir: dir, BudgetBytes: fileSize * 3 / 2})

	holder := holdBudget(t, svc, ad, "a.slow")
	adB := &slowAdapter{nBatches: 2, batchLen: 4}
	blocked, err := svc.Mount(Request{URI: "b.slow", Adapter: adB, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	waitStat(t, svc, "mount never queued on the budget", func(st Stats) bool {
		return st.QueueDepth == 1
	})
	blocked.Close()
	waitStat(t, svc, "abandoned waiter never left the queue", func(st Stats) bool {
		return st.QueueDepth == 0 && st.FlightsCancelled == 1
	})
	if got := adB.extractions.Load(); got != 0 {
		t.Errorf("abandoned flight extracted anyway (%d extractions)", got)
	}
	if b, err := holder.Next(); b != nil || err != nil {
		t.Fatalf("holder drain: (%v, %v)", b, err)
	}
	if got := svc.Stats().InFlightBytes; got != 0 {
		t.Errorf("in-flight bytes %d, want 0", got)
	}
}

// TestFIFOAdmissionNoStarvation is the satellite-2 regression: a large
// request at the queue head is admitted before later small ones, even
// while the smalls would fit the remaining budget — the leapfrog the
// old Broadcast gate allowed unboundedly.
func TestFIFOAdmissionNoStarvation(t *testing.T) {
	const budget = 1000
	sizes := map[string]int{
		"holder.slow": 600, "big.slow": 900,
		"s1.slow": 300, "s2.slow": 300, "s3.slow": 300,
	}
	dir := testFiles(t, sizes)
	adHold := &slowAdapter{nBatches: 2, batchLen: 4}
	adBig := &slowAdapter{nBatches: 2, batchLen: 4}
	adSmall := &slowAdapter{nBatches: 2, batchLen: 4}
	svc := New(Config{RepoDir: dir, BudgetBytes: budget})

	holder := holdBudget(t, svc, adHold, "holder.slow")

	// Queue big first, then the smalls, pinning FIFO arrival order by
	// waiting for each ticket to reach the gate before issuing the next.
	bigCur, err := svc.Mount(Request{URI: "big.slow", Adapter: adBig, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	waitStat(t, svc, "big never queued", func(st Stats) bool { return st.QueueDepth == 1 })
	var smallCurs []Cursor
	for i, name := range []string{"s1.slow", "s2.slow", "s3.slow"} {
		cur, err := svc.Mount(Request{URI: name, Adapter: adSmall, Span: cache.FullSpan()})
		if err != nil {
			t.Fatal(err)
		}
		smallCurs = append(smallCurs, cur)
		waitStat(t, svc, "small never queued", func(st Stats) bool { return st.QueueDepth == 2+i })
	}

	// 600 held + 300 would fit; the smalls must still wait behind big.
	time.Sleep(20 * time.Millisecond)
	if got := adSmall.extractions.Load(); got != 0 {
		t.Fatalf("%d smalls leapfrogged the blocked large waiter", got)
	}
	if got := adBig.extractions.Load(); got != 0 {
		t.Fatal("big admitted while the holder's bytes exceed the budget")
	}
	if got := svc.Stats().StarvationAvoided; got == 0 {
		t.Error("StarvationAvoided = 0, want > 0")
	}

	// Handoff: draining the holder admits big (900 <= 1000) and only
	// big — the smalls stay blocked until big's bytes free.
	if b, err := holder.Next(); b != nil || err != nil {
		t.Fatalf("holder drain: (%v, %v)", b, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for adBig.extractions.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("big never admitted after the holder drained")
		}
		time.Sleep(time.Millisecond)
	}
	if got := adSmall.extractions.Load(); got != 0 {
		t.Fatalf("%d smalls admitted alongside big (900+300 > budget)", got)
	}
	if rows := drain(t, bigCur); rows != 8 {
		t.Errorf("big rows = %d", rows)
	}
	for _, cur := range smallCurs {
		if rows := drain(t, cur); rows != 8 {
			t.Errorf("small rows = %d", rows)
		}
	}
	if got := svc.Stats().InFlightBytes; got != 0 {
		t.Errorf("in-flight bytes %d, want 0", got)
	}
}

// TestCancelledMidExtractionReleasesBudgetOnce is the satellite-3
// regression, run under -race: a flight abandoned mid-extraction
// returns its admitted bytes exactly once — the admission gate panics
// on a double release, so surviving this test IS the guard — and the
// full budget is usable afterwards.
func TestCancelledMidExtractionReleasesBudgetOnce(t *testing.T) {
	const fileSize = 1000
	ad := &slowAdapter{nBatches: 50, batchLen: 8, stepGate: make(chan struct{})}
	dir := testFiles(t, map[string]int{"a.slow": fileSize, "b.slow": fileSize})
	svc := New(Config{RepoDir: dir, BudgetBytes: fileSize})

	cur, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	ad.stepGate <- struct{}{}
	waitStat(t, svc, "first batch never streamed", func(st Stats) bool {
		return st.ReplayBytes > 0
	})
	// Abandon mid-extraction: Close (the cursor's unref) and the emit
	// callback's refcount check race to end the flight.
	cur.Close()
	ad.stepGate <- struct{}{}
	waitStat(t, svc, "cancelled flight never released", func(st Stats) bool {
		return st.FlightsCancelled == 1 && st.InFlightBytes == 0 && st.ReplayBytes == 0
	})
	// Exactly once: the whole budget is available again — a leak would
	// block this oversized-for-the-remainder mount, a double release
	// would have panicked above.
	ad2 := &slowAdapter{nBatches: 1, batchLen: 4}
	cur2, err := svc.Mount(Request{URI: "b.slow", Adapter: ad2, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	go func() {
		n, _ := drainCount(cur2)
		done <- n
	}()
	select {
	case n := <-done:
		if n != 4 {
			t.Errorf("post-cancel mount rows = %d, want 4", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("budget bytes leaked: full-budget mount blocked after cancellation")
	}
}

// TestBudgetHeldUntilReplayDrained pins the budget's lifetime: a
// flight's bytes stay accounted while its batches are resident, batches
// leaving the window give back their share, and the rest is released
// synchronously when the last cursor drains.
func TestBudgetHeldUntilReplayDrained(t *testing.T) {
	const fileSize = 1000
	dir := testFiles(t, map[string]int{"a.slow": fileSize})
	ad := &slowAdapter{nBatches: 2, batchLen: 4}
	svc := New(Config{RepoDir: dir, BudgetBytes: fileSize * 2})

	cur, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	// Unread, both batches stay resident and hold the whole admission.
	waitStat(t, svc, "extraction never finished", func(st Stats) bool {
		return ad.streamed.Load() == 2 && st.InFlightBytes > 0
	})
	if got := svc.Stats().InFlightBytes; got != fileSize {
		t.Errorf("budget released while batches are resident: in-flight %d", got)
	}
	// Consume both batches but do not reach end of stream yet: they leave
	// the window and give back their bytes.
	var read int64
	for i := 0; i < 2; i++ {
		b, err := cur.Next()
		if err != nil || b == nil {
			t.Fatalf("batch %d: (%v, %v)", i, b, err)
		}
		read += b.Bytes()
	}
	if got := svc.Stats().InFlightBytes; got != fileSize-read {
		t.Errorf("in-flight %d after reading %d bytes of batches, want %d", got, read, fileSize-read)
	}
	// Drain to the end: release is synchronous with the detach.
	if b, err := cur.Next(); b != nil || err != nil {
		t.Fatalf("expected end of stream, got (%v, %v)", b, err)
	}
	if got := svc.Stats().InFlightBytes; got != 0 {
		t.Errorf("in-flight bytes %d after last cursor drained, want 0", got)
	}
}

// batchBytes returns the decoded size of one of the slow adapter's
// batches, the unit the window threshold is denominated in.
func batchBytes(t *testing.T, batchLen int) int64 {
	t.Helper()
	dir := testFiles(t, map[string]int{"probe.slow": 64})
	svc := New(Config{RepoDir: dir})
	cur, err := svc.Mount(Request{URI: "probe.slow", Adapter: &slowAdapter{nBatches: 1, batchLen: batchLen}, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cur.Next()
	if err != nil || b == nil {
		t.Fatalf("probe batch: (%v, %v)", b, err)
	}
	n := b.Bytes()
	drain(t, cur)
	return n
}

// TestFlightSpillsOverThreshold is the out-of-core contract at the
// service level: a flight whose window passes the threshold while a
// lagging joiner (attached after batch 0 left, its prefix not yet
// re-mounted) holds it waits for that joiner, and writes nothing to
// disk. A late joiner attaching while the extractor waits re-mounts its
// own prefix; the three streams are a cold mount's, the window never
// held more than the threshold plus one batch, the gauges drain, and no
// temporary file was created.
func TestFlightSpillsOverThreshold(t *testing.T) {
	const nBatches, batchLen = 12, 32
	bb := batchBytes(t, batchLen)
	noTempFiles := watchTempDir(t)
	dir := testFiles(t, map[string]int{"a.slow": 4096})
	ad := &slowAdapter{nBatches: nBatches, batchLen: batchLen, stepGate: make(chan struct{})}
	svc := New(Config{RepoDir: dir, SpillThresholdBytes: 2 * bb})

	leader, early, leaderVals := lagJoiner(t, svc, ad, "a.slow")
	// Lockstep with the reading leader: the early joiner holds batch 1
	// on, so the window passes its two-batch threshold at batch 3.
	for i := 1; i <= 3; i++ {
		ad.stepGate <- struct{}{}
		b, err := leader.Next()
		if err != nil || b == nil {
			t.Fatalf("leader batch %d: (%v, %v)", i, b, err)
		}
		leaderVals = append(leaderVals, b.Cols[3].Float64s()...)
	}
	feed(t, ad)
	waitParked(t, svc, ad, 2*bb)
	// The late joiner attaches at the head the early one holds: it
	// re-mounts batch 0 and then reads the window, while the leader and
	// the early joiner read on.
	late, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.SingleFlightHits != 2 {
		t.Fatalf("late request did not join the flight: %+v", st)
	}
	rest, earlyCh := collectAsync(leader), collectAsync(early)
	lateVals := collectVals(t, late)
	earlyVals := <-earlyCh
	leaderVals = append(leaderVals, <-rest...)

	want := coldVals(t, dir, "a.slow", nBatches, batchLen)
	if len(want) != nBatches*batchLen || !reflect.DeepEqual(leaderVals, want) ||
		!reflect.DeepEqual(earlyVals, want) || !reflect.DeepEqual(lateVals, want) {
		t.Errorf("rows: leader %d, early %d, late %d, cold %d; want identical streams of %d",
			len(leaderVals), len(earlyVals), len(lateVals), len(want), nBatches*batchLen)
	}
	if got := ad.extractions.Load(); got != 3 {
		t.Errorf("extractions = %d, want 3 (the flight and two prefixes)", got)
	}
	st := svc.Stats()
	if st.SpilledBytes != 0 || st.SpillReplayReads != 0 {
		t.Errorf("spill counters = %+v, want 0", st)
	}
	if st.PeakReplayBytes > 3*bb {
		t.Errorf("PeakReplayBytes = %d, want <= threshold+batch = %d", st.PeakReplayBytes, 3*bb)
	}
	assertIdle(t, svc)
	noTempFiles()
}

// TestSpillReplayIdenticalToMemory pins byte-identical fan-out under a
// window: a leader pacing the extraction and a lagging joiner see
// exactly the rows the same two cursors see from a flight with no
// threshold, which keeps every unread batch in memory. In both, the
// joiner's batch 0 comes from its own prefix extraction, the only
// second one.
func TestSpillReplayIdenticalToMemory(t *testing.T) {
	const nBatches, batchLen = 10, 16
	bb := batchBytes(t, batchLen)
	dir := testFiles(t, map[string]int{"a.slow": 2048})
	streams := func(threshold int64) (leader, joiner []float64) {
		ad := &slowAdapter{nBatches: nBatches, batchLen: batchLen, stepGate: make(chan struct{})}
		svc := New(Config{RepoDir: dir, SpillThresholdBytes: threshold})
		c1, c2, got1 := lagJoiner(t, svc, ad, "a.slow")
		feed(t, ad)
		rest := collectAsync(c1) // rides the live stream
		got2 := collectVals(t, c2)
		got1 = append(got1, <-rest...)
		if got := ad.extractions.Load(); got != 2 {
			t.Errorf("threshold %d: extractions = %d, want 2 (the flight and the joiner's prefix)", threshold, got)
		}
		assertIdle(t, svc)
		return got1, got2
	}
	memLeader, memJoiner := streams(0)
	winLeader, winJoiner := streams(bb)
	if len(memLeader) != nBatches*batchLen {
		t.Fatalf("rows: %d, want %d", len(memLeader), nBatches*batchLen)
	}
	for name, got := range map[string][]float64{"in-memory joiner": memJoiner, "windowed leader": winLeader, "windowed joiner": winJoiner} {
		if !reflect.DeepEqual(got, memLeader) {
			t.Errorf("%s: %d rows differ from the in-memory leader's %d", name, len(got), len(memLeader))
		}
	}
}

// TestPeakReplayHighWaterPerAppend: the peak replay gauge must be
// sampled at every append, not at flight completion. With a bounded
// window the gauge drains mid-flight and is zero by completion — a
// completion-time sample would record nothing, and a cumulative sum
// would record the whole file.
func TestPeakReplayHighWaterPerAppend(t *testing.T) {
	const nBatches, batchLen = 16, 32
	bb := batchBytes(t, batchLen)
	dir := testFiles(t, map[string]int{"a.slow": 4096})
	ad := &slowAdapter{nBatches: nBatches, batchLen: batchLen}
	svc := New(Config{RepoDir: dir, SpillThresholdBytes: 2 * bb})

	cur, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, cur)
	st := svc.Stats()
	if st.ReplayBytes != 0 {
		t.Fatalf("ReplayBytes = %d after drain, want 0", st.ReplayBytes)
	}
	if st.PeakReplayBytes == 0 {
		t.Error("PeakReplayBytes = 0: peak was sampled at completion, after the window drained the gauge")
	}
	total := int64(nBatches) * bb
	if st.PeakReplayBytes >= total {
		t.Errorf("PeakReplayBytes = %d, want < %d: the window must bound resident replay below the whole file", st.PeakReplayBytes, total)
	}
	// The bound is threshold + one over-the-line batch.
	if max := 3 * bb; st.PeakReplayBytes > max {
		t.Errorf("PeakReplayBytes = %d, want <= threshold+batch = %d", st.PeakReplayBytes, max)
	}
}

// TestSpillReleasesAdmissionAsBatchesLand: a mount whose admission
// charge exceeds the budget still completes (oversized-alone) under a
// window, and the batches leaving the window hand budget bytes back
// while the flight is live: with the extractor parked on a joiner and
// the file not yet extracted, the admission of every batch both cursors
// have read is back, and a second mount is admitted. The release is
// exactly once across the window and the teardown.
func TestSpillReleasesAdmissionAsBatchesLand(t *testing.T) {
	const nBatches, batchLen = 8, 64
	bb := batchBytes(t, batchLen)
	// More than the five batches read below: part of the admission is
	// still held when the second mount arrives.
	const fileSize = 20000
	// Names as long as batchBytes' probe, so every batch is bb bytes.
	dir := testFiles(t, map[string]int{"large.slow": fileSize, "small.slow": 100})
	ad := &slowAdapter{nBatches: nBatches, batchLen: batchLen, stepGate: make(chan struct{})}
	svc := New(Config{RepoDir: dir, BudgetBytes: fileSize / 2, SpillThresholdBytes: bb})

	leader, joiner, _ := lagJoiner(t, svc, ad, "large.slow")
	feed(t, ad)
	rest := collectAsync(leader)
	// The joiner re-mounts batch 0 and reads batches 1..4 of the flight:
	// both cursors are past batches 0..4, so they have left the window.
	const read = 5
	for i := 0; i < read; i++ {
		if b, err := joiner.Next(); err != nil || b == nil {
			t.Fatalf("joiner batch %d: (%v, %v)", i, b, err)
		}
	}
	// The leader reads on its own goroutine, and batch 4 leaves once it
	// too is past it: only then can batch 5's emit return.
	for deadline := time.Now().Add(5 * time.Second); ad.streamed.Load() <= read; {
		if time.Now().After(deadline) {
			t.Fatal("batch 4 never left the window")
		}
		time.Sleep(time.Millisecond)
	}
	waitParked(t, svc, ad, bb)
	want := fileSize - read*bb
	if want <= 0 {
		t.Fatalf("%d read batches of %d bytes outweigh the file: the test no longer pins a partial release", read, bb)
	}
	st := svc.Stats()
	if st.PeakInFlightBytes != fileSize {
		t.Fatalf("PeakInFlightBytes = %d, want the whole %d-byte file admitted alone", st.PeakInFlightBytes, fileSize)
	}
	if st.InFlightBytes != want {
		t.Errorf("InFlightBytes = %d mid-flight, want %d: the %d read batches must give back their bytes (batch: %d)", st.InFlightBytes, want, read, bb)
	}
	small, err := svc.Mount(Request{URI: "small.slow", Adapter: &slowAdapter{nBatches: 1, batchLen: 4}, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, small); got != 4 {
		t.Errorf("small rows = %d", got)
	}
	if got := drain(t, joiner); got != (nBatches-read)*batchLen {
		t.Errorf("joiner rows after batch %d = %d, want %d", read-1, got, (nBatches-read)*batchLen)
	}
	if got := len(<-rest); got != (nBatches-1)*batchLen {
		t.Errorf("leader rows after the first batch = %d, want %d", got, (nBatches-1)*batchLen)
	}
	assertIdle(t, svc)
}

// TestSpillAbandonedFlightRemovesTempFile: closing every waiter of a
// flight parked on a lagging joiner stops the extraction and releases
// both gauges, and the flight leaves no temporary file behind.
func TestSpillAbandonedFlightRemovesTempFile(t *testing.T) {
	const nBatches, batchLen = 50, 32
	bb := batchBytes(t, batchLen)
	noTempFiles := watchTempDir(t)
	dir := testFiles(t, map[string]int{"a.slow": 2048})
	ad := &slowAdapter{nBatches: nBatches, batchLen: batchLen, stepGate: make(chan struct{})}
	svc := New(Config{RepoDir: dir, SpillThresholdBytes: bb})

	leader, joiner, _ := lagJoiner(t, svc, ad, "a.slow")
	feed(t, ad)
	// The joiner holds batch 1 on, so the window passes its one-batch
	// threshold at batch 2.
	for i := 1; i <= 2; i++ {
		if b, err := leader.Next(); err != nil || b == nil {
			t.Fatalf("leader batch %d: (%v, %v)", i, b, err)
		}
	}
	waitParked(t, svc, ad, bb)
	leader.Close()
	joiner.Close()
	waitStat(t, svc, "abandoned parked flight never released", func(st Stats) bool {
		return st.FlightsCancelled == 1 && st.InFlightBytes == 0 && st.ReplayBytes == 0
	})
	if got := ad.streamed.Load(); got >= nBatches {
		t.Errorf("abandoned extraction ran to completion (%d batches)", got)
	}
	assertIdle(t, svc)
	noTempFiles()
}
