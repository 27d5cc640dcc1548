package admission

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// acquireAsync starts an Acquire in a goroutine and returns a channel
// that receives its error when it returns.
func acquireAsync(g *Gate, ctx context.Context, session string, n int64) chan error {
	done := make(chan error, 1)
	go func() { done <- g.Acquire(ctx, session, n) }()
	return done
}

// waitQueueDepth blocks until the gate's queue holds want tickets.
func waitQueueDepth(t *testing.T, g *Gate, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.Stats().QueueDepth != want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (now %d)", want, g.Stats().QueueDepth)
		}
		time.Sleep(time.Millisecond)
	}
}

func mustDone(t *testing.T, done chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("acquire did not return")
		return nil
	}
}

func TestAcquireReleaseAccounting(t *testing.T) {
	g := New(Config{BudgetBytes: 100})
	if err := g.Acquire(context.Background(), "a", 60); err != nil {
		t.Fatal(err)
	}
	if err := g.Acquire(context.Background(), "b", 40); err != nil {
		t.Fatal(err)
	}
	if got := g.Stats().UsedBytes; got != 100 {
		t.Errorf("used = %d, want 100", got)
	}
	g.Release("a", 60)
	g.Release("b", 40)
	st := g.Stats()
	if st.UsedBytes != 0 || st.PeakBytes != 100 {
		t.Errorf("used=%d peak=%d, want 0 and 100", st.UsedBytes, st.PeakBytes)
	}
	if st.PerSession["a"].Acquires != 1 || st.PerSession["a"].HeldBytes != 0 {
		t.Errorf("session a stats = %+v", st.PerSession["a"])
	}
}

// TestCancelledWaiterReleasesNothing is the satellite-1 regression: a
// waiter cancelled while the gate is full must return promptly, leave
// the queue, and leak no bytes it never held.
func TestCancelledWaiterReleasesNothing(t *testing.T) {
	g := New(Config{BudgetBytes: 100})
	if err := g.Acquire(context.Background(), "holder", 100); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := acquireAsync(g, ctx, "victim", 50)
	waitQueueDepth(t, g, 1)
	cancel()
	if err := mustDone(t, done); err != context.Canceled {
		t.Fatalf("cancelled acquire returned %v, want context.Canceled", err)
	}
	st := g.Stats()
	if st.QueueDepth != 0 || st.UsedBytes != 100 || st.Cancelled != 1 {
		t.Errorf("after cancel: depth=%d used=%d cancelled=%d", st.QueueDepth, st.UsedBytes, st.Cancelled)
	}
	if vs := st.PerSession["victim"]; vs.HeldBytes != 0 || vs.Cancelled != 1 {
		t.Errorf("victim stats = %+v", vs)
	}
	// The gate stays healthy: release the holder, a new acquire flows.
	g.Release("holder", 100)
	if err := g.Acquire(context.Background(), "next", 100); err != nil {
		t.Fatal(err)
	}
}

// TestCancelledHeadUnblocksTail: cancelling a budget-blocked queue head
// must hand the scan to the tickets queued behind it.
func TestCancelledHeadUnblocksTail(t *testing.T) {
	g := New(Config{BudgetBytes: 100})
	if err := g.Acquire(context.Background(), "holder", 60); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	head := acquireAsync(g, ctx, "big", 90)
	waitQueueDepth(t, g, 1)
	tail := acquireAsync(g, context.Background(), "small", 40)
	waitQueueDepth(t, g, 2)
	cancel()
	if err := mustDone(t, head); err != context.Canceled {
		t.Fatalf("head returned %v", err)
	}
	if err := mustDone(t, tail); err != nil {
		t.Fatalf("tail blocked after head cancelled: %v", err)
	}
}

// TestFIFONoLeapfrog is the satellite-2 regression: N small acquirers
// queued behind one oversized waiter must not pass it.
func TestFIFONoLeapfrog(t *testing.T) {
	g := New(Config{BudgetBytes: 100})
	if err := g.Acquire(context.Background(), "holder", 90); err != nil {
		t.Fatal(err)
	}
	bigDone := acquireAsync(g, context.Background(), "big", 50)
	waitQueueDepth(t, g, 1)
	const smalls = 5
	smallDone := make([]chan error, smalls)
	for i := range smallDone {
		// Each small (5 bytes) WOULD fit the budget right now (90+5 <=
		// 100): a Broadcast gate would admit them all past big.
		smallDone[i] = acquireAsync(g, context.Background(), "small", 5)
		waitQueueDepth(t, g, 2+i)
	}
	// Nobody moves while big is budget-blocked at the head.
	time.Sleep(20 * time.Millisecond)
	select {
	case <-bigDone:
		t.Fatal("big admitted while budget full")
	default:
	}
	for i, d := range smallDone {
		select {
		case <-d:
			t.Fatalf("small %d leapfrogged the blocked head", i)
		default:
		}
	}
	if got := g.Stats().StarvationAvoided; got == 0 {
		t.Error("StarvationAvoided = 0, want > 0 (smalls held back behind the head)")
	}
	// Handoff: the head goes first, then the smalls (50 + 5*5 <= 100).
	g.Release("holder", 90)
	if err := mustDone(t, bigDone); err != nil {
		t.Fatal(err)
	}
	for i, d := range smallDone {
		if err := mustDone(t, d); err != nil {
			t.Fatalf("small %d: %v", i, err)
		}
	}
	if got := g.Stats().UsedBytes; got != 75 {
		t.Errorf("used = %d, want 75", got)
	}
}

func TestOversizedRequestAdmittedAlone(t *testing.T) {
	g := New(Config{BudgetBytes: 100})
	if err := g.Acquire(context.Background(), "a", 10); err != nil {
		t.Fatal(err)
	}
	done := acquireAsync(g, context.Background(), "big", 500)
	waitQueueDepth(t, g, 1)
	g.Release("a", 10)
	if err := mustDone(t, done); err != nil {
		t.Fatal(err)
	}
	if got := g.Stats().UsedBytes; got != 500 {
		t.Errorf("used = %d, want the oversized request alone", got)
	}
	g.Release("big", 500)
}

func TestDoubleReleasePanics(t *testing.T) {
	g := New(Config{BudgetBytes: 100})
	if err := g.Acquire(context.Background(), "s", 50); err != nil {
		t.Fatal(err)
	}
	g.Release("s", 50)
	defer func() {
		if recover() == nil {
			t.Error("second release of the same bytes did not panic")
		}
	}()
	g.Release("s", 50)
}

// TestRandomizedMultiSessionDifferential runs random acquire/release
// traffic across sessions against a reference model of the gate's
// invariants, under -race: the budget is never exceeded (every request
// fits the budget, so the oversized-alone escape never applies),
// everything drains to zero, and each session's held bytes and the
// acquire count match the model.
func TestRandomizedMultiSessionDifferential(t *testing.T) {
	const (
		budget   = 1000
		maxReq   = 400
		sessions = 4
		workers  = 3
		rounds   = 60
	)
	g := New(Config{BudgetBytes: budget})

	// model tracks what the test itself granted, independently of the
	// gate's internal accounting.
	var modelMu sync.Mutex
	modelHeld := make(map[string]int64)
	var modelTotal int64
	var granted int64

	stop := make(chan struct{})
	violations := make(chan string, 16)
	go func() {
		// Invariant monitor: samples the gate concurrently with traffic.
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := g.Stats()
			if st.UsedBytes > budget {
				violations <- "budget exceeded"
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		name := string(rune('a' + s))
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < rounds; i++ {
					n := 1 + rng.Int63n(maxReq) // always fits the budget alone
					if err := g.Acquire(context.Background(), name, n); err != nil {
						violations <- "acquire error: " + err.Error()
						return
					}
					modelMu.Lock()
					modelHeld[name] += n
					modelTotal += n
					granted++
					modelMu.Unlock()
					time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
					modelMu.Lock()
					modelHeld[name] -= n
					modelTotal -= n
					modelMu.Unlock()
					g.Release(name, n)
				}
			}(int64(s*100 + w))
		}
	}
	wg.Wait()
	close(stop)
	select {
	case v := <-violations:
		t.Fatal(v)
	default:
	}

	st := g.Stats()
	if st.UsedBytes != 0 || modelTotal != 0 {
		t.Errorf("drained: gate=%d model=%d, want 0", st.UsedBytes, modelTotal)
	}
	if st.QueueDepth != 0 {
		t.Errorf("queue depth = %d after drain", st.QueueDepth)
	}
	var acquires int64
	for name, s := range st.PerSession {
		if s.HeldBytes != modelHeld[name] {
			t.Errorf("session %s held: gate=%d model=%d", name, s.HeldBytes, modelHeld[name])
		}
		acquires += s.Acquires
	}
	if acquires != granted {
		t.Errorf("acquires: gate=%d model=%d", acquires, granted)
	}
}

// TestAcquireGrantRacingCancel hammers the grant/cancel race: whichever
// side wins, an error return must leave nothing held.
func TestAcquireGrantRacingCancel(t *testing.T) {
	g := New(Config{BudgetBytes: 10})
	for i := 0; i < 200; i++ {
		if err := g.Acquire(context.Background(), "holder", 10); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := acquireAsync(g, ctx, "racer", 10)
		go g.Release("holder", 10) // may grant racer...
		cancel()                   // ...while this cancels it
		if err := mustDone(t, done); err != nil {
			// Cancel won: nothing held by racer.
			if got := g.Stats().PerSession["racer"].HeldBytes; got != 0 {
				t.Fatalf("iteration %d: cancelled racer holds %d", i, got)
			}
		} else {
			g.Release("racer", 10)
		}
		// Either way the gate must be empty again.
		deadline := time.Now().Add(5 * time.Second)
		for g.Stats().UsedBytes != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("iteration %d: gate never drained (used %d)", i, g.Stats().UsedBytes)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
}
