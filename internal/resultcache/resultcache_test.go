package resultcache

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/vector"
)

func fp(s string) plan.Fingerprint {
	return plan.Fingerprint(sha256.Sum256([]byte(s)))
}

func mat(vals ...int64) *exec.Materialized {
	return &exec.Materialized{
		Schema:  []plan.ColInfo{{Name: "v", Kind: vector.KindInt64}},
		Batches: []*vector.Batch{vector.NewBatch(vector.FromInt64(vals))},
	}
}

func TestGetPutAndEpoch(t *testing.T) {
	c := New(Config{})
	if _, ok := c.Get(fp("q1")); ok {
		t.Fatal("empty cache served a result")
	}
	if !c.Put(fp("q1"), "", mat(1, 2, 3), time.Second) {
		t.Fatal("Put rejected with no cost floor")
	}
	got, ok := c.Get(fp("q1"))
	if !ok || got.Rows() != 3 {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	c.BumpEpoch()
	if _, ok := c.Get(fp("q1")); ok {
		t.Fatal("entry served after epoch bump")
	}
	st := c.Stats()
	if st.Epoch != 1 || st.Invalidations != 1 || st.Entries != 0 {
		t.Fatalf("stats after bump = %+v", st)
	}
}

func TestCostAdmission(t *testing.T) {
	c := New(Config{MinCost: time.Second})
	if c.Put(fp("cheap"), "", mat(1), time.Millisecond) {
		t.Fatal("cheap result admitted below the cost floor")
	}
	if !c.Put(fp("dear"), "", mat(1), 2*time.Second) {
		t.Fatal("expensive result rejected")
	}
	if st := c.Stats(); st.RejectedStores != 1 || st.Stores != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestByteBudgetLRU(t *testing.T) {
	one := mat(1, 2, 3, 4)
	per := one.Batches[0].Bytes()
	c := New(Config{MaxBytes: 2 * per})
	c.Put(fp("a"), "", mat(1, 2, 3, 4), 0)
	c.Put(fp("b"), "", mat(5, 6, 7, 8), 0)
	// Touch a so b is the LRU victim.
	if _, ok := c.Get(fp("a")); !ok {
		t.Fatal("a missing")
	}
	c.Put(fp("c"), "", mat(9, 10, 11, 12), 0)
	if _, ok := c.Get(fp("b")); ok {
		t.Fatal("LRU kept the least recently served entry")
	}
	if _, ok := c.Get(fp("a")); !ok {
		t.Fatal("LRU evicted the recently served entry")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.BytesResident != 2*per {
		t.Fatalf("stats = %+v", st)
	}
}

// TestBumpEpochReleasesSessionBytes: invalidation must return every
// entry's bytes, or the resident gauge in Stats would outlive the
// entries it came from.
func TestBumpEpochReleasesSessionBytes(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	c.Put(fp("a"), "s1", mat(1, 2), 0)
	c.Put(fp("b"), "s2", mat(3, 4), 0)
	c.BumpEpoch()
	if st := c.Stats(); st.BytesResident != 0 || st.Entries != 0 {
		t.Fatalf("after bump: %d resident bytes in %d entries", st.BytesResident, st.Entries)
	}
}

// TestSingleFlightCoalesces pins the query-granular single-flight: K
// concurrent Do calls for one fingerprint run compute exactly once, and
// every rider receives the leader's result.
func TestSingleFlightCoalesces(t *testing.T) {
	c := New(Config{})
	const k = 16
	var executions atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]*exec.Materialized, k)
	outs := make([]Outcome, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, out, err := c.Do(fp("q"), "", nil, func() (*exec.Materialized, time.Duration, error) {
				executions.Add(1)
				<-gate // hold the flight open until all riders queued
				return mat(42), time.Second, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i], outs[i] = m, out
		}(i)
	}
	// Wait until everyone is either the leader or riding its flight.
	for {
		c.mu.Lock()
		riders := c.riders
		c.mu.Unlock()
		if riders == k-1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := executions.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
	var stored, ridden int
	for i := 0; i < k; i++ {
		if results[i].Rows() != 1 || results[i].Batches[0].Cols[0].Int64s()[0] != 42 {
			t.Fatalf("client %d got wrong result", i)
		}
		if outs[i].Stored {
			stored++
		}
		if outs[i].Rider {
			ridden++
		}
	}
	if stored != 1 || ridden != k-1 {
		t.Fatalf("stored=%d ridden=%d, want 1/%d", stored, ridden, k-1)
	}
	// The stored entry now serves directly.
	m, out, err := c.Do(fp("q"), "", nil, func() (*exec.Materialized, time.Duration, error) {
		t.Fatal("stored entry recomputed")
		return nil, 0, nil
	})
	if err != nil || !out.Hit || out.Rider || m.Rows() != 1 {
		t.Fatalf("post-flight Do = %v, %+v, %v", m, out, err)
	}
}

// TestFlightErrorPropagates pins that a failed leader reports the error
// to every rider and leaves nothing cached.
func TestFlightErrorPropagates(t *testing.T) {
	c := New(Config{})
	boom := errors.New("boom")
	gate := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.Do(fp("q"), "", nil, func() (*exec.Materialized, time.Duration, error) {
				<-gate
				return nil, 0, boom
			})
		}(i)
	}
	for {
		c.mu.Lock()
		riders := c.riders
		c.mu.Unlock()
		if riders == 3 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("client %d error = %v, want boom", i, err)
		}
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("failed execution left an entry: %+v", st)
	}
}

// TestEpochRaceSkipsStore pins that an execution straddling an epoch
// bump serves its result but does not retain it.
func TestEpochRaceSkipsStore(t *testing.T) {
	c := New(Config{})
	m, out, err := c.Do(fp("q"), "", nil, func() (*exec.Materialized, time.Duration, error) {
		c.BumpEpoch() // the data changed mid-execution
		return mat(1), time.Second, nil
	})
	if err != nil || m.Rows() != 1 {
		t.Fatalf("Do = %v, %v", m, err)
	}
	if out.Stored {
		t.Fatal("stale-epoch result was retained")
	}
	if _, ok := c.Get(fp("q")); ok {
		t.Fatal("stale-epoch result is being served")
	}
}

// TestNilCacheIsTransparent pins the nil-safety contract.
func TestNilCacheIsTransparent(t *testing.T) {
	var c *Cache
	if _, ok := c.Get(fp("q")); ok {
		t.Fatal("nil cache hit")
	}
	c.Put(fp("q"), "", mat(1), 0)
	c.BumpEpoch()
	m, out, err := c.Do(fp("q"), "", nil, func() (*exec.Materialized, time.Duration, error) {
		return mat(7), 0, nil
	})
	if err != nil || out.Hit || m.Rows() != 1 {
		t.Fatalf("nil Do = %v, %+v, %v", m, out, err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Hits != 0 || st.Stores != 0 || st.BytesResident != 0 {
		t.Fatalf("nil Stats = %+v", st)
	}
}

// TestServedSharesAreIsolated pins the CoW contract end to end: a served
// share can be mutated without corrupting the entry.
func TestServedSharesAreIsolated(t *testing.T) {
	c := New(Config{})
	c.Put(fp("q"), "", mat(1, 2, 3), 0)
	got, _ := c.Get(fp("q"))
	served, err := exec.ServeCachedResult(got, &exec.Env{Mounts: &exec.MountStats{}})
	if err != nil {
		t.Fatal(err)
	}
	served.Batches[0].Cols[0].Set(0, vector.Int64(99))
	again, _ := c.Get(fp("q"))
	if v := again.Batches[0].Cols[0].Int64s()[0]; v != 1 {
		t.Fatalf("cache entry corrupted through a served share: %d", v)
	}
}

// TestConcurrentMixedWorkload hammers the cache from many goroutines
// with overlapping fingerprints, stores, probes and epoch bumps; run
// under -race it pins the locking discipline.
func TestConcurrentMixedWorkload(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 16})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fp(fmt.Sprintf("q%d", i%5))
				switch i % 4 {
				case 0:
					c.Do(key, "", nil, func() (*exec.Materialized, time.Duration, error) {
						return mat(int64(i)), time.Duration(i), nil
					})
				case 1:
					if m, ok := c.Get(key); ok && m.Rows() != 1 {
						t.Error("malformed entry")
						return
					}
				case 2:
					c.Put(key, "", mat(int64(g)), time.Duration(i))
				default:
					if i%40 == 3 {
						c.BumpEpoch()
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPutAtEpochGuard pins the interactive path's straddle guard: a
// result whose execution began before an invalidation is rejected.
func TestPutAtEpochGuard(t *testing.T) {
	c := New(Config{})
	startEpoch := c.Epoch()
	c.BumpEpoch() // the data changed while the query executed
	if c.PutAt(fp("q"), "", mat(1), time.Second, startEpoch, nil) {
		t.Fatal("stale-epoch result retained through PutAt")
	}
	if _, ok := c.Get(fp("q")); ok {
		t.Fatal("stale-epoch result served")
	}
	if !c.PutAt(fp("q"), "", mat(1), time.Second, c.Epoch(), nil) {
		t.Fatal("current-epoch PutAt rejected")
	}
}

// TestRiderOutcomeMarkedOnLeaderError pins the inherited-failure
// contract: a rider failed by its leader's error sees Outcome.Rider, so
// a live caller (the engine's QueryAs) can tell the failure was not its
// own and re-resolve — e.g. when the leader died of its own context
// cancellation.
func TestRiderOutcomeMarkedOnLeaderError(t *testing.T) {
	c := New(Config{})
	gate := make(chan struct{})
	type riderResult struct {
		out Outcome
		err error
	}
	got := make(chan riderResult, 1)
	go func() {
		c.Do(fp("q"), "", nil, func() (*exec.Materialized, time.Duration, error) {
			<-gate
			return nil, 0, context.Canceled // the leader's own ctx died
		})
	}()
	go func() {
		for {
			c.mu.Lock()
			started := len(c.flights) == 1
			c.mu.Unlock()
			if started {
				break
			}
			time.Sleep(time.Millisecond)
		}
		_, out, err := c.Do(fp("q"), "", nil, func() (*exec.Materialized, time.Duration, error) {
			t.Error("rider recomputed instead of riding")
			return nil, 0, nil
		})
		got <- riderResult{out, err}
	}()
	for {
		c.mu.Lock()
		riders := c.riders
		c.mu.Unlock()
		if riders == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	select {
	case r := <-got:
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("rider error = %v, want the leader's context.Canceled", r.err)
		}
		if !r.out.Rider {
			t.Fatal("inherited failure not marked Rider: the caller cannot tell it from its own")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rider never woken")
	}
	// The dead flight left the table: the next Do recomputes cleanly.
	m, out, err := c.Do(fp("q"), "", nil, func() (*exec.Materialized, time.Duration, error) {
		return mat(42), time.Second, nil
	})
	if err != nil || out.Hit || m.Rows() != 1 {
		t.Fatalf("retry after dead leader = (%v, %+v, %v)", m, out, err)
	}
}

// TestLeaderPanicWakesRiders pins the panic recovery: a leader that
// panics out of compute must still remove its flight and fail its
// riders instead of wedging them (and every later identical query)
// forever.
func TestLeaderPanicWakesRiders(t *testing.T) {
	c := New(Config{})
	gate := make(chan struct{})
	riderErr := make(chan error, 1)
	leaderDone := make(chan struct{})
	// Leader: panics out of compute once released. The panic is recovered
	// in this goroutine; Do's deferred publish must have cleaned up first.
	go func() {
		defer close(leaderDone)
		defer func() { recover() }()
		c.Do(fp("q"), "", nil, func() (*exec.Materialized, time.Duration, error) {
			<-gate
			panic("engine invariant violation")
		})
	}()
	// Rider: joins the leader's flight, then must be woken with an error.
	go func() {
		for {
			c.mu.Lock()
			started := len(c.flights) == 1
			c.mu.Unlock()
			if started {
				break
			}
			time.Sleep(time.Millisecond)
		}
		_, _, err := c.Do(fp("q"), "", nil, func() (*exec.Materialized, time.Duration, error) {
			t.Error("rider recomputed instead of riding")
			return nil, 0, nil
		})
		riderErr <- err
	}()
	// Release the leader once the rider is registered on the flight.
	for {
		c.mu.Lock()
		riders := c.riders
		c.mu.Unlock()
		if riders == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	select {
	case err := <-riderErr:
		if err != errLeaderAborted {
			t.Fatalf("rider error = %v, want errLeaderAborted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rider deadlocked on a panicked leader's flight")
	}
	<-leaderDone
	// The flight table is clean: a fresh Do computes normally.
	m, out, err := c.Do(fp("q"), "", nil, func() (*exec.Materialized, time.Duration, error) {
		return mat(1), time.Second, nil
	})
	if err != nil || out.Hit || m.Rows() != 1 {
		t.Fatalf("post-panic Do = %v, %+v, %v", m, out, err)
	}
}

// TestRiderIsNotAMiss pins the stats accounting: riding an in-flight
// execution counts as a rider (a form of hit), not a miss.
func TestRiderIsNotAMiss(t *testing.T) {
	c := New(Config{})
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do(fp("q"), "", nil, func() (*exec.Materialized, time.Duration, error) {
			<-gate
			return mat(1), time.Second, nil
		})
	}()
	for {
		c.mu.Lock()
		started := len(c.flights) == 1
		c.mu.Unlock()
		if started {
			break
		}
		time.Sleep(time.Millisecond)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Do(fp("q"), "", nil, func() (*exec.Materialized, time.Duration, error) {
				t.Error("rider recomputed")
				return nil, 0, nil
			})
		}()
	}
	for {
		c.mu.Lock()
		riders := c.riders
		c.mu.Unlock()
		if riders == 3 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	<-done
	st := c.Stats()
	if st.Misses != 1 || st.Riders != 3 {
		t.Fatalf("misses=%d riders=%d, want 1/3", st.Misses, st.Riders)
	}
}

// TestPostInvalidationQueryDoesNotRideStaleFlight pins the epoch check
// on the join path: a query issued after a bump has observed "the data
// changed" and must re-execute instead of riding a pre-change flight.
func TestPostInvalidationQueryDoesNotRideStaleFlight(t *testing.T) {
	c := New(Config{})
	gate := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.Do(fp("q"), "", nil, func() (*exec.Materialized, time.Duration, error) {
			<-gate
			return mat(1), time.Second, nil
		})
	}()
	for {
		c.mu.Lock()
		started := len(c.flights) == 1
		c.mu.Unlock()
		if started {
			break
		}
		time.Sleep(time.Millisecond)
	}
	c.BumpEpoch() // the data changed while the old flight is running

	recomputed := false
	m, out, err := c.Do(fp("q"), "", nil, func() (*exec.Materialized, time.Duration, error) {
		recomputed = true
		return mat(2), time.Second, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !recomputed || out.Rider {
		t.Fatalf("post-invalidation query rode the stale flight (out=%+v)", out)
	}
	if got := m.Batches[0].Cols[0].Int64s()[0]; got != 2 {
		t.Fatalf("served value %d, want the recomputed 2", got)
	}
	close(gate)
	<-leaderDone
	// The fresh result is the retained one; the stale leader's publish
	// must neither store nor remove the fresh flight-table state.
	entry, ok := c.Get(fp("q"))
	if !ok || entry.Batches[0].Cols[0].Int64s()[0] != 2 {
		t.Fatalf("retained entry = %v, %v; want the post-bump result", entry, ok)
	}
	if st := c.Stats(); st.Stores != 1 || st.RejectedStores != 1 {
		t.Fatalf("stats = %+v, want 1 store (fresh) and 1 rejection (stale)", st)
	}
}

// --- semantic (subsumption) index ---

// subInfo builds a summary with one int64 interval column "c" bounded
// [lo, hi] (closed), sharing one bucket per key string.
func subInfo(key string, lo, hi int64) *plan.SubsumptionInfo {
	return &plan.SubsumptionInfo{
		Key: plan.SubsumptionKey(sha256.Sum256([]byte(key))),
		Intervals: map[string]plan.Interval{
			"c": {HasLo: true, Lo: vector.Int64(lo), HasHi: true, Hi: vector.Int64(hi)},
		},
	}
}

func TestGetSubsumingServesWiderEntry(t *testing.T) {
	c := New(Config{})
	wideFp, wide := fp("wide"), subInfo("bucket", 0, 100)
	if !c.PutAt(wideFp, "", mat(1, 2, 3), time.Second, c.Epoch(), wide) {
		t.Fatal("indexed store rejected")
	}
	narrow := subInfo("bucket", 10, 20)
	hit, ok := c.GetSubsuming(fp("narrow"), narrow)
	if !ok {
		t.Fatal("contained interval missed the wider entry")
	}
	if hit.Fp != wideFp || hit.Mat.Rows() != 3 || hit.Cost != time.Second {
		t.Fatalf("hit = %+v", hit)
	}
	// The wider query must not be served by the narrower... entry the
	// other way around: store narrow, probe with a wider summary.
	if _, ok := c.GetSubsuming(fp("wider-still"), subInfo("bucket", -50, 500)); ok {
		t.Fatal("a wider query was served by a narrower entry")
	}
	// Different bucket: never served.
	if _, ok := c.GetSubsuming(fp("n2"), subInfo("other-bucket", 10, 20)); ok {
		t.Fatal("cross-bucket subsumption hit")
	}
	st := c.Stats()
	if st.SubsumptionHits != 1 || st.SubsumptionProbes != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGetSubsumingSkipsOwnFingerprint(t *testing.T) {
	c := New(Config{})
	sub := subInfo("bucket", 0, 100)
	c.PutAt(fp("q"), "", mat(1), time.Second, c.Epoch(), sub)
	// The exact entry is the exact-match path's business: the semantic
	// probe must not serve an entry to its own fingerprint.
	if _, ok := c.GetSubsuming(fp("q"), sub); ok {
		t.Fatal("semantic probe served the query's own entry")
	}
}

func TestGetSubsumingPrefersSmallestCandidate(t *testing.T) {
	c := New(Config{})
	c.PutAt(fp("huge"), "", mat(1, 2, 3, 4, 5, 6, 7, 8), time.Second, c.Epoch(), subInfo("bucket", 0, 1000))
	c.PutAt(fp("small"), "", mat(1, 2), time.Second, c.Epoch(), subInfo("bucket", 0, 100))
	hit, ok := c.GetSubsuming(fp("narrow"), subInfo("bucket", 10, 20))
	if !ok || hit.Fp != fp("small") {
		t.Fatalf("want the smallest containing entry, got %+v ok=%v", hit, ok)
	}
}

func TestSubsumptionIndexDropsWithEntry(t *testing.T) {
	c := New(Config{})
	sub := subInfo("bucket", 0, 100)
	c.PutAt(fp("wide"), "", mat(1, 2, 3), time.Second, c.Epoch(), sub)

	// Epoch bump: the semantic index must not serve pre-bump entries.
	c.BumpEpoch()
	if _, ok := c.GetSubsuming(fp("narrow"), subInfo("bucket", 10, 20)); ok {
		t.Fatal("semantic index served an invalidated entry")
	}

	// Re-store, then evict via the byte budget: the bucket must follow.
	per := mat(1, 2, 3, 4).Batches[0].Bytes()
	c2 := New(Config{MaxBytes: per})
	c2.PutAt(fp("wide"), "", mat(1, 2, 3, 4), time.Second, c2.Epoch(), subInfo("bucket", 0, 100))
	c2.PutAt(fp("other"), "", mat(5, 6, 7, 8), time.Second, c2.Epoch(), nil)
	if _, ok := c2.GetSubsuming(fp("narrow"), subInfo("bucket", 10, 20)); ok {
		t.Fatal("semantic index served an evicted entry")
	}
}

func TestDoNotStoreDeclinesRetention(t *testing.T) {
	c := New(Config{})
	if c.Put(fp("q"), "", mat(1), DoNotStore) {
		t.Fatal("DoNotStore cost retained an entry")
	}
	st := c.Stats()
	if st.Stores != 0 || st.RejectedStores != 0 {
		t.Fatalf("DoNotStore must not count as store or rejection: %+v", st)
	}
	// Via Do: the leader declining retention still serves its riders.
	got, out, err := c.Do(fp("q2"), "", nil, func() (*exec.Materialized, time.Duration, error) {
		return mat(7), DoNotStore, nil
	})
	if err != nil || out.Stored || got.Rows() != 1 {
		t.Fatalf("Do with DoNotStore: %v %+v", err, out)
	}
	if _, ok := c.Get(fp("q2")); ok {
		t.Fatal("DoNotStore result retained through Do")
	}
}
