package mountsvc

import (
	"context"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/storage"
)

// assertIdle checks what every window test must leave behind: both
// gauges at zero and the gate balanced.
func assertIdle(t *testing.T, svc *Service) {
	t.Helper()
	waitStat(t, svc, "flight never released", func(st Stats) bool {
		return st.InFlightBytes == 0 && st.ReplayBytes == 0
	})
	if got := svc.Gate().Stats().UsedBytes; got != 0 {
		t.Errorf("gate holds %d bytes at idle", got)
	}
}

// coldVals is a cold mount's stream of a file: a fresh service and an
// ungated adapter of the same shape.
func coldVals(t *testing.T, dir, uri string, nBatches, batchLen int) []float64 {
	t.Helper()
	cur, err := New(Config{RepoDir: dir}).Mount(Request{URI: uri, Adapter: &slowAdapter{nBatches: nBatches, batchLen: batchLen}, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	return collectVals(t, cur)
}

// collectVals drains a cursor into its value column.
func collectVals(t *testing.T, cur Cursor) []float64 {
	t.Helper()
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

// collectAsync drains a cursor on its own goroutine and delivers its
// value column. It stops at the first error, which the caller's row
// count then shows.
func collectAsync(cur Cursor) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var vals []float64
		for {
			b, err := cur.Next()
			if err != nil || b == nil {
				out <- vals
				return
			}
			vals = append(vals, b.Cols[3].Float64s()...)
		}
	}()
	return out
}

// watchTempDir points os.TempDir at an empty directory for the rest of
// the test and returns a check that fails if anything was created in
// it: a flight writes no temporary file.
func watchTempDir(t *testing.T) func() {
	t.Helper()
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	return func() {
		t.Helper()
		if ents, err := os.ReadDir(tmp); err != nil || len(ents) != 0 {
			t.Errorf("temp dir holds %v (%v), want nothing", ents, err)
		}
	}
}

// feed lets the adapter's extractions run freely from here until the
// test ends.
func feed(t *testing.T, ad *slowAdapter) {
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		for {
			select {
			case ad.stepGate <- struct{}{}:
			case <-stop:
				return
			}
		}
	}()
}

// waitParked waits until the window holds more than limit bytes, then
// checks that the extraction has stopped: the extractor is parked.
func waitParked(t *testing.T, svc *Service, ad *slowAdapter, limit int64) {
	t.Helper()
	waitStat(t, svc, "window never passed the threshold", func(st Stats) bool {
		return st.ReplayBytes > limit
	})
	n := ad.streamed.Load()
	time.Sleep(20 * time.Millisecond)
	if got := ad.streamed.Load(); got != n || got >= int64(ad.nBatches) {
		t.Fatalf("extractor kept streaming past the threshold (%d → %d batches)", n, got)
	}
}

// TestWindowReadingLeaderNeverSpills: past the threshold the extractor
// waits for a flight's only cursor, nothing is spilled, and the window
// never holds more than the threshold plus the batch that crossed it.
func TestWindowReadingLeaderNeverSpills(t *testing.T) {
	const nBatches, batchLen = 12, 32
	bb := batchBytes(t, batchLen)
	dir := testFiles(t, map[string]int{"a.slow": 4096})
	ad := &slowAdapter{nBatches: nBatches, batchLen: batchLen, stepGate: make(chan struct{})}
	svc := New(Config{RepoDir: dir, SpillThresholdBytes: 2 * bb})

	cur, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	// One read, then the cursor idles.
	ad.stepGate <- struct{}{}
	if b, err := cur.Next(); err != nil || b == nil {
		t.Fatalf("first batch: (%v, %v)", b, err)
	}
	feed(t, ad)
	waitParked(t, svc, ad, 2*bb)
	if got := len(collectVals(t, cur)); got != (nBatches-1)*batchLen {
		t.Errorf("leader saw %d more rows, want %d", got, (nBatches-1)*batchLen)
	}
	st := svc.Stats()
	if st.SpilledBytes != 0 || st.SpillReplayReads != 0 {
		t.Errorf("a reading leader spilled: %+v", st)
	}
	if st.PeakReplayBytes > 3*bb {
		t.Errorf("PeakReplayBytes = %d, want <= threshold+batch = %d", st.PeakReplayBytes, 3*bb)
	}
	assertIdle(t, svc)
}

// lagJoiner mounts uri as a leader, reads its first batch (one stepGate token)
// and mounts the same file again. Batch 0 has left the window, so the
// second request is a joiner at batch 1: until it has re-mounted batch 0
// it reads nothing of the flight, and holds the window at batch 1
// meanwhile. It returns both cursors and the leader's first batch's
// values.
func lagJoiner(t *testing.T, svc *Service, ad *slowAdapter, uri string) (leader, joiner Cursor, first []float64) {
	t.Helper()
	leader, err := svc.Mount(Request{URI: uri, Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	ad.stepGate <- struct{}{}
	b, err := leader.Next()
	if err != nil || b == nil {
		t.Fatalf("leader's first batch: (%v, %v)", b, err)
	}
	if joiner, err = svc.Mount(Request{URI: uri, Adapter: ad, Span: cache.FullSpan()}); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.SingleFlightHits != 1 {
		t.Fatalf("second request did not join the flight: %+v", st)
	}
	return leader, joiner, b.Cols[3].Float64s()
}

// TestWindowWaitsForJoinerPrefix: a joiner that has not started on its
// prefix is waited for like any cursor. While the leader reads all it
// can, the extractor stops once the window passes the threshold; when
// the joiner drains, both streams are a cold mount's and the window
// never held more than the threshold plus one batch.
func TestWindowWaitsForJoinerPrefix(t *testing.T) {
	const nBatches, batchLen = 12, 32
	bb := batchBytes(t, batchLen)
	dir := testFiles(t, map[string]int{"a.slow": 4096})
	ad := &slowAdapter{nBatches: nBatches, batchLen: batchLen, stepGate: make(chan struct{})}
	svc := New(Config{RepoDir: dir, SpillThresholdBytes: 2 * bb})

	leader, joiner, leaderVals := lagJoiner(t, svc, ad, "a.slow")
	rest := collectAsync(leader)
	feed(t, ad)
	waitParked(t, svc, ad, 2*bb)
	joinerVals := collectVals(t, joiner)
	leaderVals = append(leaderVals, <-rest...)

	want := coldVals(t, dir, "a.slow", nBatches, batchLen)
	if len(want) != nBatches*batchLen || !reflect.DeepEqual(joinerVals, want) || !reflect.DeepEqual(leaderVals, want) {
		t.Errorf("rows: joiner %d, leader %d, cold %d; want identical streams of %d",
			len(joinerVals), len(leaderVals), len(want), nBatches*batchLen)
	}
	if st := svc.Stats(); st.PeakReplayBytes > 3*bb {
		t.Errorf("PeakReplayBytes = %d, want <= threshold+batch = %d", st.PeakReplayBytes, 3*bb)
	}
	assertIdle(t, svc)
}

// TestWindowParkedExtractorWakes: an extractor parked on a reading
// cursor wakes when that cursor leaves — by Close or by its own context
// while another reader carries on, and by abandonment when it was the
// last — and the flight tears down cleanly.
func TestWindowParkedExtractorWakes(t *testing.T) {
	const nBatches, batchLen = 12, 32
	bb := batchBytes(t, batchLen)
	for _, how := range []string{"close", "ctx", "abandon"} {
		t.Run(how, func(t *testing.T) {
			dir := testFiles(t, map[string]int{"a.slow": 4096})
			ad := &slowAdapter{nBatches: nBatches, batchLen: batchLen, stepGate: make(chan struct{})}
			svc := New(Config{RepoDir: dir, SpillThresholdBytes: 2 * bb, BudgetBytes: 8192})

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			readers := []Cursor{}
			for i := 0; i < 2 && (i == 0 || how != "abandon"); i++ {
				cur, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan(), Ctx: ctx})
				if err != nil {
					t.Fatal(err)
				}
				readers = append(readers, cur)
				ctx = context.Background() // only the slow reader cancels
			}
			ad.stepGate <- struct{}{}
			for i, cur := range readers {
				if b, err := cur.Next(); err != nil || b == nil {
					t.Fatalf("reader %d first batch: (%v, %v)", i, b, err)
				}
			}
			feed(t, ad)
			slow := readers[0]
			rows := make(chan int, 1)
			if len(readers) > 1 {
				go func() {
					n, _ := drainCount(readers[1])
					rows <- n + batchLen
				}()
			}
			waitParked(t, svc, ad, 2*bb)
			switch how {
			case "ctx":
				cancel()
				if _, err := slow.Next(); !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled reader got %v, want context.Canceled", err)
				}
			default:
				slow.Close()
			}
			if len(readers) > 1 {
				select {
				case n := <-rows:
					if n != nBatches*batchLen {
						t.Errorf("surviving reader saw %d rows, want %d", n, nBatches*batchLen)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("extractor stayed parked after its slow reader left")
				}
			} else {
				waitStat(t, svc, "parked flight never abandoned", func(st Stats) bool {
					return st.FlightsCancelled == 1
				})
				if got := ad.streamed.Load(); got >= nBatches {
					t.Errorf("abandoned extraction ran to completion (%d batches)", got)
				}
			}
			assertIdle(t, svc)
		})
	}
}

// TestWindowLateJoinerRemountsPrefix: a request joining after the
// window has left batch 0 re-mounts the batches before the head
// privately and rides the flight from there. Its stream is a cold
// mount's; the join counts as single-flight; the prefix's Touch finds
// the pages the flight touched, so it adds no modeled I/O.
func TestWindowLateJoinerRemountsPrefix(t *testing.T) {
	const nBatches, batchLen, head = 12, 8, 4
	ad := &slowAdapter{nBatches: nBatches, batchLen: batchLen, stepGate: make(chan struct{})}
	dir := testFiles(t, map[string]int{"a.slow": int(storage.PageSize) * 3})
	clock := &storage.Clock{}
	pool := storage.NewBufferPool(64, storage.HDD7200(), clock)
	svc := New(Config{RepoDir: dir, Pool: pool})

	leader, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	var leaderVals []float64
	for i := 0; i < head; i++ {
		ad.stepGate <- struct{}{}
		b, err := leader.Next()
		if err != nil || b == nil {
			t.Fatalf("leader batch %d: (%v, %v)", i, b, err)
		}
		leaderVals = append(leaderVals, b.Cols[3].Float64s()...)
	}
	if st := svc.Stats(); st.ReplayBytes != 0 {
		t.Fatalf("batches the only cursor has read are still resident: %+v", st)
	}
	touched, modeled := pool.Stats(), clock.Elapsed()

	joiner, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, ad)
	leaderVals = append(leaderVals, collectVals(t, leader)...)
	joinerVals := collectVals(t, joiner)

	coldVals := coldVals(t, dir, "a.slow", nBatches, batchLen)
	if len(coldVals) != nBatches*batchLen || !reflect.DeepEqual(joinerVals, coldVals) || !reflect.DeepEqual(leaderVals, coldVals) {
		t.Errorf("rows: joiner %d, leader %d, cold %d; want identical streams of %d",
			len(joinerVals), len(leaderVals), len(coldVals), nBatches*batchLen)
	}
	if got := ad.extractions.Load(); got != 2 {
		t.Errorf("extractions = %d, want 2 (the flight and the joiner's prefix)", got)
	}
	st := svc.Stats()
	if st.FlightsStarted != 1 || st.SingleFlightHits != 1 {
		t.Errorf("FlightsStarted = %d, SingleFlightHits = %d; want 1 and 1", st.FlightsStarted, st.SingleFlightHits)
	}
	ps := pool.Stats()
	if ps.Misses != touched.Misses || ps.Hits != touched.Hits+3 {
		t.Errorf("prefix Touch: hits %d → %d, misses %d → %d; want 3 hits, no miss",
			touched.Hits, ps.Hits, touched.Misses, ps.Misses)
	}
	if got := clock.Elapsed(); got != modeled {
		t.Errorf("prefix added modeled I/O: %v → %v", modeled, got)
	}
	assertIdle(t, svc)
}

// TestBudgetGivenBackAsBatchesAreRead pins what the budget bounds when
// no threshold is set: a flight gives back its admission as its batches
// leave the window, byte for decoded byte, so a second flight is
// admitted as soon as the first's reader has read a file's worth of
// decoded bytes, while the first is still extracting.
func TestBudgetGivenBackAsBatchesAreRead(t *testing.T) {
	const nBatches, batchLen = 6, 32
	bb := batchBytes(t, batchLen)
	fileSize := bb + bb/2 // one read batch gives back part, two all
	dir := testFiles(t, map[string]int{"a.slow": int(fileSize), "b.slow": int(fileSize)})
	ad := &slowAdapter{nBatches: nBatches, batchLen: batchLen, stepGate: make(chan struct{})}
	svc := New(Config{RepoDir: dir, BudgetBytes: fileSize})

	first, err := svc.Mount(Request{URI: "a.slow", Adapter: ad, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	waitStat(t, svc, "first flight never admitted", func(st Stats) bool { return st.InFlightBytes == fileSize })
	second, err := svc.Mount(Request{URI: "b.slow", Adapter: &slowAdapter{nBatches: 2, batchLen: 4}, Span: cache.FullSpan()})
	if err != nil {
		t.Fatal(err)
	}
	waitStat(t, svc, "second flight never queued", func(st Stats) bool { return st.QueueDepth == 1 })

	// A batch extracted but unread holds the whole admission; reading it
	// gives back its decoded bytes, not enough for a second file.
	ad.stepGate <- struct{}{}
	waitStat(t, svc, "batch 0 never appended", func(st Stats) bool { return st.ReplayBytes > 0 })
	b0 := svc.Stats().ReplayBytes
	if st := svc.Stats(); st.InFlightBytes != fileSize || st.QueueDepth != 1 || 2*b0 < fileSize || b0 >= fileSize {
		t.Fatalf("unread batch of %d bytes: %+v, want the whole admission held and one flight queued", b0, st)
	}
	if b, err := first.Next(); err != nil || b == nil {
		t.Fatalf("first batch: (%v, %v)", b, err)
	}
	if st := svc.Stats(); st.InFlightBytes != fileSize-b0 || st.QueueDepth != 1 {
		t.Fatalf("one batch read: %+v, want %d held and one flight queued", st, fileSize-b0)
	}
	// The second read batch gives back the rest: the second flight is
	// admitted while the first still has batches to extract.
	ad.stepGate <- struct{}{}
	if b, err := first.Next(); err != nil || b == nil {
		t.Fatalf("second batch: (%v, %v)", b, err)
	}
	if got := drain(t, second); got != 8 {
		t.Errorf("second flight rows = %d, want 8", got)
	}
	if got := ad.streamed.Load(); got != 2 {
		t.Errorf("first flight streamed %d batches before the second was admitted, want 2", got)
	}
	feed(t, ad)
	if got := drain(t, first); got != (nBatches-2)*batchLen {
		t.Errorf("first flight rows after two batches = %d, want %d", got, (nBatches-2)*batchLen)
	}
	assertIdle(t, svc)
}
