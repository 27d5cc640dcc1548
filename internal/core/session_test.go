package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
)

// TestQueryAsAttributesMountsToSession: the session identity threaded
// through QueryAs must surface in the mount service's per-session
// admission statistics, with nothing left held after the query.
func TestQueryAsAttributesMountsToSession(t *testing.T) {
	m := testRepo(t)
	eng := openEngine(t, m.Dir, Options{Mode: ModeALi, MountBudgetBytes: 1 << 30})
	want, _ := expectedQuery1(t, m)
	res, err := eng.QueryAs(context.Background(), "alice", query1)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Float(0, 0); got != want {
		t.Errorf("answer = %v, want %v", got, want)
	}
	st := eng.MountService().Stats()
	ss, ok := st.PerSession["alice"]
	if !ok || ss.Acquires == 0 {
		t.Fatalf("no admission stats for session alice: %+v", st.PerSession)
	}
	if ss.HeldBytes != 0 {
		t.Errorf("session alice still holds %d budget bytes after the query", ss.HeldBytes)
	}
	if _, ok := st.PerSession["bob"]; ok {
		t.Error("phantom session appeared in the stats")
	}
}

// TestQueryAsCancelledBeforeMount: a query whose context is already
// cancelled when it reaches the admission gate fails promptly and
// deterministically, holding no budget bytes — the engine-level face of
// the cancellable-wait bugfix.
func TestQueryAsCancelledBeforeMount(t *testing.T) {
	m := testRepo(t)
	eng := openEngine(t, m.Dir, Options{Mode: ModeALi, MountBudgetBytes: 1 << 30})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() {
		_, err := eng.QueryAs(ctx, "impatient", query1)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled query returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled query hung")
	}
	if got := eng.MountService().Stats().WaiterCancels; got == 0 {
		t.Error("cursor-level cancellation not counted in Stats")
	}
	// The abandoned flight stops and releases asynchronously (at the
	// next batch boundary, or when its queued admission is cancelled).
	deadline := time.Now().Add(10 * time.Second)
	for eng.MountService().Stats().InFlightBytes != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("cancelled query leaked %d budget bytes",
				eng.MountService().Stats().InFlightBytes)
		}
		time.Sleep(time.Millisecond)
	}
	// The engine stays fully usable afterwards.
	if _, err := eng.QueryAs(context.Background(), "impatient", query1); err != nil {
		t.Fatalf("query after cancellation: %v", err)
	}
}

// TestResultCacheStoresAttributedToSession: stores land on the leader's
// session in the result cache's per-session accounting.
func TestResultCacheStoresAttributedToSession(t *testing.T) {
	m := testRepo(t)
	eng := openEngine(t, m.Dir, Options{Mode: ModeALi, ResultCacheBytes: -1})
	if _, err := eng.QueryAs(context.Background(), "dashboard", query1); err != nil {
		t.Fatal(err)
	}
	st := eng.ResultCache().Stats()
	ss, ok := st.PerSession["dashboard"]
	if !ok || ss.HeldBytes == 0 {
		t.Fatalf("stored result not attributed to its session: %+v", st.PerSession)
	}
	if st.BytesResident != ss.HeldBytes {
		t.Errorf("resident %d != session-held %d with one session", st.BytesResident, ss.HeldBytes)
	}
}

// TestMountMaxSessionShareBoundsGreedySession: Options.MountMaxSessionShare
// must reach the mount service's admission gate. One greedy session
// loops a bulk query under a three-file budget while interactive
// sessions run Query 1: the greedy session is passed over at its quota,
// never holds more than its share (or one file larger than the share,
// which the gate admits alone), and every interactive answer equals the
// uncontended one. Wall-clock waits are not asserted.
func TestMountMaxSessionShareBoundsGreedySession(t *testing.T) {
	m := testRepo(t)
	var maxFile int64
	for _, f := range m.Files {
		if f.SizeBytes > maxFile {
			maxFile = f.SizeBytes
		}
	}
	budget := 3 * m.Bytes / int64(len(m.Files))
	const share = 0.5
	// Parallelism above what the quota admits, so the greedy session
	// always has more mount requests in hand than it may hold.
	eng := openEngine(t, m.Dir, Options{
		Mode: ModeALi, MountBudgetBytes: budget, MountMaxSessionShare: share, Parallelism: 4,
	})
	ref, err := eng.Query(query1)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Format(0)

	// Every file before Jan 12: disjoint from Query 1's file, so the
	// interactive sessions lead their own flights.
	const bulk = `SELECT AVG(D.sample_value)
FROM F JOIN R ON F.uri = R.uri
JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
WHERE R.start_time > '2010-01-01T00:00:00.000'
AND R.start_time < '2010-01-12T00:00:00.000'`
	ctx := context.Background()
	greedy := func() admission.SessionStats { return eng.MountService().Stats().PerSession["greedy"] }
	stop := make(chan struct{})
	greedyErr := make(chan error, 1)
	go func() {
		// Until the interactive sessions are done, and then until the
		// quota has bitten at least once (it does within the first run
		// unless the wiring is broken; the deadline bounds that case).
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, err := eng.QueryAs(ctx, "greedy", bulk); err != nil {
				greedyErr <- err
				return
			}
			select {
			case <-stop:
				if greedy().QuotaBlocked > 0 || time.Now().After(deadline) {
					greedyErr <- nil
					return
				}
			default:
			}
		}
	}()

	const sessions, runs = 3, 4
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < runs; r++ {
				res, err := eng.QueryAs(ctx, fmt.Sprintf("interactive-%d", i), query1)
				if err == nil && res.Format(0) != want {
					err = fmt.Errorf("answer under contention:\n%s\nwant:\n%s", res.Format(0), want)
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	if err := <-greedyErr; err != nil {
		t.Fatalf("greedy session: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("interactive session %d: %v", i, err)
		}
	}

	g := greedy()
	if g.QuotaBlocked == 0 {
		t.Error("greedy session was never passed over at its quota")
	}
	ceiling := int64(share * float64(budget))
	if maxFile > ceiling {
		ceiling = maxFile
	}
	if g.PeakHeldBytes > ceiling {
		t.Errorf("greedy session held %d bytes at peak, over its ceiling %d (share %.2f of budget %d, largest file %d)",
			g.PeakHeldBytes, ceiling, share, budget, maxFile)
	}
	if held := eng.MountService().Stats().InFlightBytes; held != 0 {
		t.Errorf("%d budget bytes still held after every session finished", held)
	}
}
