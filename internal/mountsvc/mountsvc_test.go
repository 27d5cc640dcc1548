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

// TestReplayBytesTrackedWithBatchBytes pins the replay-buffer gauge to
// the vector-level size estimate rather than any ad-hoc guess.
func TestReplayBytesTrackedWithBatchBytes(t *testing.T) {
	dir := testFiles(t, map[string]int{"a.slow": 64})
	ad := &slowAdapter{nBatches: 2, batchLen: 4}
	svc := New(Config{RepoDir: dir})
	cur, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
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
	if b, ok := mgr.Get("a.slow", cache.FullSpan()); !ok || b.Len() != 40 {
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

// holdBudget mounts a file and consumes its batches without reaching
// end of stream, so the flight's budget bytes stay held; the returned
// cursor releases them when drained or closed.
func holdBudget(t *testing.T, svc *Service, ad *slowAdapter, uri string) Cursor {
	t.Helper()
	cur, err := svc.Mount(Request{URI: uri, Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ad.nBatches; i++ {
		if b, err := cur.Next(); err != nil || b == nil {
			t.Fatalf("batch %d: (%v, %v)", i, b, err)
		}
	}
	return cur
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

// TestBudgetHeldUntilReplayDrained pins the budget's lifetime: the
// bytes of a flight stay accounted while any cursor can still replay
// its buffer, and are released synchronously when the last cursor
// drains — resident decoded data is what the budget bounds, not just
// the decode phase.
func TestBudgetHeldUntilReplayDrained(t *testing.T) {
	const fileSize = 1000
	dir := testFiles(t, map[string]int{"a.slow": fileSize})
	ad := &slowAdapter{nBatches: 2, batchLen: 4}
	svc := New(Config{RepoDir: dir, BudgetBytes: fileSize * 2})

	cur, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	// Consume both batches but do not reach end of stream yet.
	for i := 0; i < 2; i++ {
		if b, err := cur.Next(); err != nil || b == nil {
			t.Fatalf("batch %d: (%v, %v)", i, b, err)
		}
	}
	if got := svc.Stats().InFlightBytes; got != fileSize {
		t.Errorf("budget released while the replay buffer is still referenced: in-flight %d", got)
	}
	// Drain to the end: release is synchronous with the detach.
	if b, err := cur.Next(); b != nil || err != nil {
		t.Fatalf("expected end of stream, got (%v, %v)", b, err)
	}
	if got := svc.Stats().InFlightBytes; got != 0 {
		t.Errorf("in-flight bytes %d after last cursor drained, want 0", got)
	}
}

// spillBatchBytes returns the decoded size of one of the slow adapter's
// batches, the unit the spill threshold is denominated in.
func spillBatchBytes(t *testing.T, batchLen int) int64 {
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
// service level: a flight whose replay buffer exceeds the threshold
// flushes it to a temp spill file, cursors (one that began in memory and
// one that joined after the first flush) replay the identical stream
// from disk, the replay gauge drains, and the temp file is gone once the
// last cursor detaches.
func TestFlightSpillsOverThreshold(t *testing.T) {
	const nBatches, batchLen = 12, 32
	bb := spillBatchBytes(t, batchLen)
	spillDir := t.TempDir()
	dir := testFiles(t, map[string]int{"a.slow": 4096})
	ad := &slowAdapter{nBatches: nBatches, batchLen: batchLen, stepGate: make(chan struct{})}
	svc := New(Config{RepoDir: dir, SpillDir: spillDir, SpillThresholdBytes: 2 * bb})

	early, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	// Let one batch through and consume it from memory before any spill.
	ad.stepGate <- struct{}{}
	b0, err := early.Next()
	if err != nil || b0 == nil || b0.Len() != batchLen {
		t.Fatalf("first batch: (%v, %v)", b0, err)
	}
	vals0 := append([]float64{}, b0.Cols[3].Float64s()...)
	// Release half the file. Once the adapter has taken the token for
	// batch mid it has appended batches 0..mid-1, and the buffer passed
	// its two-batch threshold at the third: the first flush is on disk,
	// the last batch is not decoded yet, and nobody has read the spill.
	const mid = nBatches / 2
	for i := 1; i <= mid; i++ {
		ad.stepGate <- struct{}{}
	}
	if st := svc.Stats(); st.SpilledFlights != 1 || st.SpillReplayReads != 0 {
		t.Fatalf("mid-flight: %+v, want one spilled flight and no replay reads yet", st)
	}
	// The late joiner: attached mid-flight, it must replay the spilled
	// prefix from disk and then continue from the live tail.
	late, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	l0, err := late.Next()
	if err != nil || l0 == nil {
		t.Fatalf("late joiner's first batch: (%v, %v)", l0, err)
	}
	if st := svc.Stats(); st.SingleFlightHits != 1 || st.SpillReplayReads == 0 {
		t.Fatalf("late joiner: %+v, want a single-flight join served from the spill file", st)
	}
	for i := mid + 1; i < nBatches; i++ {
		ad.stepGate <- struct{}{}
	}
	collect := func(first *vector.Batch, cur Cursor) []float64 {
		out := append([]float64{}, first.Cols[3].Float64s()...)
		for {
			b, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				return out
			}
			out = append(out, b.Cols[3].Float64s()...)
		}
	}
	earlyVals, lateVals := collect(b0, early), collect(l0, late)
	if len(earlyVals) != nBatches*batchLen {
		t.Errorf("early cursor saw %d rows, want %d", len(earlyVals), nBatches*batchLen)
	}
	if !reflect.DeepEqual(earlyVals, lateVals) {
		t.Errorf("late joiner's stream differs from the early cursor's (%d vs %d rows)", len(lateVals), len(earlyVals))
	}

	st := svc.Stats()
	if st.SpilledFlights != 1 {
		t.Errorf("SpilledFlights = %d, want 1", st.SpilledFlights)
	}
	if st.SpilledBytes <= 0 || st.SpillReplayReads <= 0 {
		t.Errorf("spill counters = %+v, want positive SpilledBytes and SpillReplayReads", st)
	}
	if st.ReplayBytes != 0 {
		t.Errorf("ReplayBytes = %d after drain, want 0", st.ReplayBytes)
	}
	if st.InFlightBytes != 0 {
		t.Errorf("InFlightBytes = %d after drain, want 0", st.InFlightBytes)
	}
	if vals0[0] != 0 {
		t.Errorf("first batch content changed: %v", vals0[0])
	}
	ents, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("spill dir not empty after flight teardown: %v", ents)
	}
}

// TestSpillReplayIdenticalToMemory pins byte-identical fan-out: two
// cursors — one pacing the extraction, one draining only after the
// whole file has spilled — see exactly the same rows in the same order.
func TestSpillReplayIdenticalToMemory(t *testing.T) {
	const nBatches, batchLen = 10, 16
	bb := spillBatchBytes(t, batchLen)
	spillDir := t.TempDir()
	dir := testFiles(t, map[string]int{"a.slow": 2048})
	// The gate holds the extraction until both cursors are attached: a
	// flight that finished before the second Mount could not be joined.
	ad := &slowAdapter{nBatches: nBatches, batchLen: batchLen, gate: make(chan struct{})}
	svc := New(Config{RepoDir: dir, SpillDir: spillDir, SpillThresholdBytes: bb})

	collect := func(cur Cursor) []float64 {
		var out []float64
		for {
			b, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				return out
			}
			out = append(out, b.Cols[3].Float64s()...)
		}
	}
	c1, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	close(ad.gate)
	got1 := collect(c1) // mostly rides the live stream
	got2 := collect(c2) // replays after everything spilled
	if len(got1) != nBatches*batchLen || len(got2) != len(got1) {
		t.Fatalf("rows: %d vs %d, want %d", len(got1), len(got2), nBatches*batchLen)
	}
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("row %d diverged: %v vs %v", i, got1[i], got2[i])
		}
	}
	if ad.extractions.Load() != 1 {
		t.Errorf("extractions = %d, want 1", ad.extractions.Load())
	}
}

// TestPeakReplayHighWaterPerAppend is the satellite regression: the
// peak replay gauge must be sampled at every append, not at flight
// completion. With spilling enabled the gauge drains mid-flight and is
// zero by completion — a completion-time sample would record nothing,
// and an unspilled cumulative sum would record the whole file.
func TestPeakReplayHighWaterPerAppend(t *testing.T) {
	const nBatches, batchLen = 16, 32
	bb := spillBatchBytes(t, batchLen)
	spillDir := t.TempDir()
	dir := testFiles(t, map[string]int{"a.slow": 4096})
	ad := &slowAdapter{nBatches: nBatches, batchLen: batchLen}
	svc := New(Config{RepoDir: dir, SpillDir: spillDir, SpillThresholdBytes: 2 * bb})

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
		t.Error("PeakReplayBytes = 0: peak was sampled at completion, after the spill drained the gauge")
	}
	total := int64(nBatches) * bb
	if st.PeakReplayBytes >= total {
		t.Errorf("PeakReplayBytes = %d, want < %d: spilling must bound resident replay below the whole file", st.PeakReplayBytes, total)
	}
	// The bound is threshold + one over-the-line batch.
	if max := 3 * bb; st.PeakReplayBytes > max {
		t.Errorf("PeakReplayBytes = %d, want <= threshold+batch = %d", st.PeakReplayBytes, max)
	}
}

// TestSpillReleasesAdmissionAsBatchesLand: a mount whose admission
// charge exceeds the budget still completes (oversized-alone), and
// spilling hands budget bytes back while the flight is live, so a
// second mount can be admitted before the first is drained.
func TestSpillReleasesAdmissionAsBatchesLand(t *testing.T) {
	const batchLen = 64
	bb := spillBatchBytes(t, batchLen)
	spillDir := t.TempDir()
	const fileSize = 10000
	dir := testFiles(t, map[string]int{"big.slow": fileSize, "small.slow": 100})
	ad := &slowAdapter{nBatches: 8, batchLen: batchLen}
	svc := New(Config{RepoDir: dir, BudgetBytes: fileSize / 2, SpillDir: spillDir, SpillThresholdBytes: bb})

	big, err := svc.Mount(Request{URI: "big.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the extraction to finish: everything has spilled, and the
	// admission bytes must already be (mostly) back even though the
	// cursor has not drained.
	waitStat(t, svc, "flight never spilled", func(st Stats) bool {
		return st.SpilledFlights == 1 && st.SpilledBytes >= int64(7)*bb
	})
	st := svc.Stats()
	if st.InFlightBytes >= fileSize {
		t.Errorf("InFlightBytes = %d: spilling returned no admission bytes", st.InFlightBytes)
	}
	if got := drain(t, big); got != 8*batchLen {
		t.Errorf("big rows = %d, want %d", got, 8*batchLen)
	}
	small, err := svc.Mount(Request{URI: "small.slow", Adapter: &slowAdapter{nBatches: 1, batchLen: 4}, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, small); got != 4 {
		t.Errorf("small rows = %d", got)
	}
	if got := svc.Stats().InFlightBytes; got != 0 {
		t.Errorf("InFlightBytes = %d at idle, want 0 (exactly-once release across spill flushes and teardown)", got)
	}
}

// TestSpillAbandonedFlightRemovesTempFile: cancelling every waiter of a
// spilling flight stops the extraction and deletes the spill file.
func TestSpillAbandonedFlightRemovesTempFile(t *testing.T) {
	const batchLen = 32
	bb := spillBatchBytes(t, batchLen)
	spillDir := t.TempDir()
	dir := testFiles(t, map[string]int{"a.slow": 2048})
	ad := &slowAdapter{nBatches: 50, batchLen: batchLen, stepGate: make(chan struct{})}
	svc := New(Config{RepoDir: dir, SpillDir: spillDir, SpillThresholdBytes: bb})

	cur, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		ad.stepGate <- struct{}{}
	}
	// Wait until all four emits have fully landed: closing the cursor
	// while an emit is still in flight would fail that emit's refcount
	// check and stop the stream before the fifth token is consumed.
	for deadline := time.Now().Add(5 * time.Second); ad.streamed.Load() < 4; {
		if time.Now().After(deadline) {
			t.Fatal("adapter never finished the first four batches")
		}
		time.Sleep(time.Millisecond)
	}
	waitStat(t, svc, "flight never spilled", func(st Stats) bool { return st.SpilledFlights == 1 })
	cur.Close()
	ad.stepGate <- struct{}{} // the next emit sees zero refs and stops
	waitStat(t, svc, "abandoned spilling flight never released", func(st Stats) bool {
		return st.FlightsCancelled == 1 && st.InFlightBytes == 0 && st.ReplayBytes == 0
	})
	// The file is removed by the flight goroutine's own teardown, which
	// runs after the cancellation stats flip; poll rather than snapshot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ents, err := os.ReadDir(spillDir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned flight leaked spill files: %v", ents)
		}
		time.Sleep(time.Millisecond)
	}
}
