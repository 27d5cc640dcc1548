package core

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
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
// session, which the result cache records as the storing client in its
// restart manifest.
func TestResultCacheStoresAttributedToSession(t *testing.T) {
	m := testRepo(t)
	spill := t.TempDir()
	eng := openEngine(t, m.Dir, Options{Mode: ModeALi, ResultCacheBytes: -1, SpillDir: spill})
	if _, err := eng.QueryAs(context.Background(), "dashboard", query1); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(spill, "results", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Entries []struct{ Session string }
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Entries) != 1 || man.Entries[0].Session != "dashboard" {
		t.Fatalf("stored result not attributed to its session: %s", data)
	}
}
