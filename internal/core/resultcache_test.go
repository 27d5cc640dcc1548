package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
)

// resultCacheOpts enables the result cache with no admission floor.
func resultCacheOpts(extra Options) Options {
	extra.ResultCacheBytes = -1
	return extra
}

// TestResultCacheHitServesIdenticalResult pins the basic hit path: the
// second identical query is served from the cache, byte-identical,
// with zero mounts and the hit attributed to per-query stats.
func TestResultCacheHitServesIdenticalResult(t *testing.T) {
	m := testRepo(t)
	eng := openEngine(t, m.Dir, resultCacheOpts(Options{Mode: ModeALi}))

	cold, err := eng.Query(query1)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.ServedFromResultCache {
		t.Fatal("first execution claims a result-cache serve")
	}
	hit, err := eng.Query(query1)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Stats.ServedFromResultCache {
		t.Fatal("repeat execution was not served from the result cache")
	}
	if hit.Stats.Mounts.FilesMounted != 0 || hit.Stats.Mounts.ResultCacheHits != 1 {
		t.Fatalf("hit mounts = %+v", hit.Stats.Mounts)
	}
	if hit.Stats.Mounts.ResultCacheBytes <= 0 {
		t.Fatal("hit did not attribute served bytes")
	}
	if cold.Format(0) != hit.Format(0) {
		t.Fatalf("cached result differs:\ncold:\n%s\nhit:\n%s", cold.Format(0), hit.Format(0))
	}
	st := eng.ResultCache().Stats()
	if st.Stores != 1 || st.Hits != 1 {
		t.Fatalf("cache stats = %+v", st)
	}
}

// TestResultCacheEquivalentSpellingsShareOneEntry pins the canonical
// fingerprint end to end: different spellings of one query hit the
// entry the first spelling stored.
func TestResultCacheEquivalentSpellingsShareOneEntry(t *testing.T) {
	m := testRepo(t)
	eng := openEngine(t, m.Dir, resultCacheOpts(Options{Mode: ModeALi}))

	spellings := []string{
		query1,
		// Reordered conjuncts, flipped sides, swapped ON sides.
		`SELECT AVG(D.sample_value)
FROM F JOIN R ON R.uri = F.uri
JOIN D ON D.uri = R.uri AND D.record_id = R.record_id
WHERE R.start_time < '2010-01-12T23:59:59.999'
AND 'ISK' = F.station AND F.channel = 'BHE'
AND R.start_time > '2010-01-12T00:00:00.000'
AND D.sample_time < '2010-01-12T22:15:02.000'
AND D.sample_time > '2010-01-12T22:15:00.000'`,
		// Aliased tables, swapped join order.
		`SELECT AVG(dd.sample_value)
FROM R rr JOIN F ff ON ff.uri = rr.uri
JOIN D dd ON rr.uri = dd.uri AND rr.record_id = dd.record_id
WHERE ff.station = 'ISK' AND ff.channel = 'BHE'
AND rr.start_time > '2010-01-12T00:00:00.000'
AND rr.start_time < '2010-01-12T23:59:59.999'
AND dd.sample_time > '2010-01-12T22:15:00.000'
AND dd.sample_time < '2010-01-12T22:15:02.000'`,
	}
	first, err := eng.Query(spellings[0])
	if err != nil {
		t.Fatal(err)
	}
	want := first.Float(0, 0)
	for i, q := range spellings[1:] {
		res, err := eng.Query(q)
		if err != nil {
			t.Fatalf("spelling %d: %v", i+1, err)
		}
		if !res.Stats.ServedFromResultCache {
			t.Fatalf("spelling %d missed the result cache", i+1)
		}
		if got := res.Float(0, 0); got != want {
			t.Fatalf("spelling %d value %v != %v", i+1, got, want)
		}
	}
	if st := eng.ResultCache().Stats(); st.Stores != 1 || st.Hits != int64(len(spellings)-1) {
		t.Fatalf("cache stats = %+v", st)
	}
}

// TestResultCacheDifferentialConcurrent is the randomized differential
// test: concurrent clients issue a random mix of queries against a
// cached engine, and every result must be byte-identical to the cold
// answer computed by an identically configured cache-less engine. Run
// under -race it also pins the single-flight locking.
func TestResultCacheDifferentialConcurrent(t *testing.T) {
	m := testRepo(t)
	cold := openEngine(t, m.Dir, Options{Mode: ModeALi})
	cached := openEngine(t, m.Dir, resultCacheOpts(Options{Mode: ModeALi}))

	queries := []string{
		query1,
		query2,
		`SELECT station, COUNT(*) FROM F GROUP BY station ORDER BY station`,
		`SELECT COUNT(*) FROM R WHERE R.start_time > '2010-01-12T00:00:00.000'`,
		`SELECT MAX(D.sample_value)
FROM F JOIN R ON F.uri = R.uri
JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
WHERE F.station = 'ISK'
AND R.start_time > '2010-01-12T00:00:00.000'
AND R.start_time < '2010-01-12T23:59:59.999'`,
	}
	want := make(map[string]string, len(queries))
	for _, q := range queries {
		res, err := cold.Query(q)
		if err != nil {
			t.Fatalf("cold %q: %v", q, err)
		}
		want[q] = res.Format(0)
	}

	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 12; i++ {
				q := queries[rng.Intn(len(queries))]
				res, err := cached.Query(q)
				if err != nil {
					t.Errorf("cached %q: %v", q, err)
					return
				}
				if got := res.Format(0); got != want[q] {
					t.Errorf("cached result differs for %q:\n%s\nwant:\n%s", q, got, want[q])
					return
				}
			}
		}(int64(c) + 1)
	}
	wg.Wait()

	st := cached.ResultCache().Stats()
	if st.Hits+st.Riders == 0 {
		t.Fatalf("concurrent workload never hit the cache: %+v", st)
	}
	if st.Stores > int64(len(queries)) {
		t.Fatalf("more stores than distinct queries: %+v", st)
	}
}

// TestResultCacheInvalidation pins the epoch wiring: a repo/ingestion-
// cache change bumps the epoch and the next identical query re-executes
// instead of serving the stale entry.
func TestResultCacheInvalidation(t *testing.T) {
	m := testRepo(t)
	eng := openEngine(t, m.Dir, resultCacheOpts(Options{
		Mode:  ModeALi,
		Cache: cache.Config{Policy: cache.LRU, Granularity: cache.FileGranular},
	}))

	first, err := eng.Query(query1)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Mounts.FilesMounted == 0 {
		t.Fatal("first run mounted nothing")
	}
	epochBefore := eng.ResultCache().Stats().Epoch

	// The file changed: the ingestion-cache drop must bump the epoch...
	eng.NotifyFileChanged(m.Files[0].URI)
	if got := eng.ResultCache().Stats().Epoch; got != epochBefore+1 {
		t.Fatalf("epoch = %d after file change, want %d", got, epochBefore+1)
	}

	// ...and force a full re-execution (mounts happen again).
	again, err := eng.Query(query1)
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.ServedFromResultCache {
		t.Fatal("stale result served after invalidation")
	}
	if again.Stats.Mounts.FilesMounted == 0 && again.Stats.Mounts.CacheHits == 0 {
		t.Fatalf("re-execution touched no data: %+v", again.Stats.Mounts)
	}
	if again.Float(0, 0) != first.Float(0, 0) {
		t.Fatal("unchanged data produced a different answer")
	}

	// Clear (the cold protocol) invalidates too.
	before := eng.ResultCache().Stats().Epoch
	eng.Cache().Clear()
	if got := eng.ResultCache().Stats().Epoch; got != before+1 {
		t.Fatalf("Clear did not bump the epoch: %d vs %d", got, before)
	}
}

// TestResultCacheSingleFlightQueries pins the acceptance criterion at
// engine level: K identical concurrent queries perform one full
// execution — the riders are served as shares with zero extra file
// mounts.
func TestResultCacheSingleFlightQueries(t *testing.T) {
	m := testRepo(t)
	eng := openEngine(t, m.Dir, resultCacheOpts(Options{Mode: ModeALi}))

	// A wide query so the leader's execution is long enough to ride.
	q := `SELECT AVG(D.sample_value)
FROM F JOIN R ON F.uri = R.uri
JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
WHERE R.start_time > '2010-01-01T00:00:00.000'`

	const k = 8
	results := make([]*Result, k)
	errs := make([]error, k)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			results[i], errs[i] = eng.Query(q)
		}(i)
	}
	start.Done()
	wg.Wait()

	var mounted, hits int
	var want float64
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		mounted += results[i].Stats.Mounts.FilesMounted
		hits += results[i].Stats.Mounts.ResultCacheHits
		if i == 0 {
			want = results[0].Float(0, 0)
		} else if got := results[i].Float(0, 0); got != want {
			t.Fatalf("client %d answer %v != %v", i, got, want)
		}
	}
	files := len(eng.RepoFiles())
	if mounted != files {
		t.Fatalf("total file mounts = %d, want exactly %d (one execution)", mounted, files)
	}
	if hits != k-1 {
		t.Fatalf("result-cache serves = %d, want %d", hits, k-1)
	}
	st := eng.ResultCache().Stats()
	if st.Stores != 1 {
		t.Fatalf("stores = %d, want 1 (%+v)", st.Stores, st)
	}
}

// TestResultCacheAdmissionGate pins the cost floor: with an absurdly
// high floor nothing is retained, but execution still works.
func TestResultCacheAdmissionGate(t *testing.T) {
	m := testRepo(t)
	opts := resultCacheOpts(Options{Mode: ModeALi})
	opts.ResultCacheMinCost = 24 * time.Hour
	eng := openEngine(t, m.Dir, opts)

	for i := 0; i < 2; i++ {
		if _, err := eng.Query(query1); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.ResultCache().Stats()
	if st.Stores != 0 || st.RejectedStores == 0 {
		t.Fatalf("admission gate did not reject: %+v", st)
	}
}

// TestResultCacheInteractivePath pins that the explorer's Stage1/Proceed
// flow both stores into and probes the cache.
func TestResultCacheInteractivePath(t *testing.T) {
	m := testRepo(t)
	eng := openEngine(t, m.Dir, resultCacheOpts(Options{Mode: ModeALi}))

	p, err := eng.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Fingerprint.IsZero() {
		t.Fatal("Prepare left the fingerprint unset")
	}
	bp, err := p.Stage1()
	if err != nil {
		t.Fatal(err)
	}
	if bp.Done() {
		t.Fatal("query1 should reach the breakpoint")
	}
	first, err := bp.Proceed()
	if err != nil {
		t.Fatal(err)
	}

	// Same query again: Stage1 itself is short-circuited by the probe.
	p2, err := eng.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	bp2, err := p2.Stage1()
	if err != nil {
		t.Fatal(err)
	}
	if !bp2.Done() {
		t.Fatal("probe stage did not answer the repeated query")
	}
	res := bp2.Result()
	if !res.Stats.ServedFromResultCache {
		t.Fatal("breakpoint result not marked as a cache serve")
	}
	if res.Float(0, 0) != first.Float(0, 0) {
		t.Fatal("cached breakpoint answer differs")
	}
}

// TestResultCacheDisabledIsInert pins that a zero configuration changes
// nothing: no cache, no fingerprint probes, identical behavior to the
// seed engine.
func TestResultCacheDisabledIsInert(t *testing.T) {
	m := testRepo(t)
	eng := openEngine(t, m.Dir, Options{Mode: ModeALi})
	if eng.ResultCache() != nil {
		t.Fatal("result cache allocated despite being disabled")
	}
	a, err := eng.Query(query1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Query(query1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.ServedFromResultCache || b.Stats.ServedFromResultCache {
		t.Fatal("disabled cache served a result")
	}
	if a.Format(0) != b.Format(0) {
		t.Fatal("repeat execution differs")
	}
}

// TestResultCacheEiMode pins that the conventional engine benefits too:
// the pipeline is shared, so Ei queries fingerprint and cache the same
// way.
func TestResultCacheEiMode(t *testing.T) {
	m := testRepo(t)
	eng := openEngine(t, m.Dir, resultCacheOpts(Options{Mode: ModeEi}))
	q := `SELECT station, COUNT(*) FROM F GROUP BY station ORDER BY station`
	first, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Stats.ServedFromResultCache {
		t.Fatal("Ei repeat missed the result cache")
	}
	if first.Format(0) != hit.Format(0) {
		t.Fatal("Ei cached result differs")
	}
}

// TestResultCacheStatsString smoke-checks that stats render (used by the
// explorer's \stats).
func TestResultCacheStatsString(t *testing.T) {
	m := testRepo(t)
	eng := openEngine(t, m.Dir, resultCacheOpts(Options{Mode: ModeALi}))
	if _, err := eng.Query(query1); err != nil {
		t.Fatal(err)
	}
	st := eng.ResultCache().Stats()
	s := fmt.Sprintf("%+v", st)
	if s == "" || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestResultCacheStraddleNotRetained pins the review-found straddle
// bug on the interactive path: an invalidation landing between Stage1
// and Proceed must keep the (possibly pre-change) result out of the
// cache.
func TestResultCacheStraddleNotRetained(t *testing.T) {
	m := testRepo(t)
	eng := openEngine(t, m.Dir, resultCacheOpts(Options{Mode: ModeALi}))

	p, err := eng.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := p.Stage1()
	if err != nil {
		t.Fatal(err)
	}
	// The file changes while the query sits at the breakpoint.
	eng.NotifyFileChanged(m.Files[0].URI)
	if _, err := bp.Proceed(); err != nil {
		t.Fatal(err)
	}
	st := eng.ResultCache().Stats()
	if st.Stores != 0 {
		t.Fatalf("straddling execution was retained: %+v", st)
	}
	// The next identical query must execute, not serve a stale entry.
	res, err := eng.Query(query1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ServedFromResultCache {
		t.Fatal("stale straddling result served")
	}
}

// TestRepeatedTextIsNotCompiledAgain pins QueryAs's text memo: a text
// seen before is served from the result cache without another pass
// through parse → fingerprint (qfSeq counts ALi compilations), is
// compiled once more to re-execute after an invalidation, and a text
// that does not compile is never remembered.
func TestRepeatedTextIsNotCompiledAgain(t *testing.T) {
	m := testRepo(t)
	eng := openEngine(t, m.Dir, resultCacheOpts(Options{Mode: ModeALi}))

	cold, err := eng.Query(query1)
	if err != nil {
		t.Fatal(err)
	}
	compiled := eng.qfSeq.Load()
	hit, err := eng.Query(query1)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Stats.ServedFromResultCache || cold.Format(0) != hit.Format(0) {
		t.Fatalf("repeat served from cache = %v, result:\n%s", hit.Stats.ServedFromResultCache, hit.Format(0))
	}
	if got := eng.qfSeq.Load(); got != compiled {
		t.Fatalf("repeat of a cached text compiled %d more times", got-compiled)
	}

	eng.NotifyFileChanged(m.Files[0].URI)
	again, err := eng.Query(query1)
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.ServedFromResultCache || again.Stats.Mounts.FilesMounted == 0 {
		t.Fatalf("stale result served after invalidation: %+v", again.Stats)
	}
	if got := eng.qfSeq.Load(); got != compiled+1 {
		t.Fatalf("re-execution compiled %d times, want 1", got-compiled)
	}
	if again.Format(0) != cold.Format(0) {
		t.Fatal("unchanged data produced a different answer")
	}

	for i := 0; i < 2; i++ {
		if _, err := eng.Query("SELECT nothing FROM nowhere"); err == nil {
			t.Fatal("invalid text did not fail")
		}
	}
	if _, ok := eng.compiledText("SELECT nothing FROM nowhere"); ok {
		t.Fatal("a text that does not compile was remembered")
	}

	// The memo is bounded: one text past the bound evicts the least
	// recently used one and keeps the rest.
	for i := 0; i <= maxCompiledTexts; i++ {
		eng.rememberText(fmt.Sprint("text ", i), compiledText{})
	}
	if n := eng.texts.Len(); n != maxCompiledTexts {
		t.Fatalf("memo holds %d texts, want %d", n, maxCompiledTexts)
	}
	if _, ok := eng.texts.Peek("text 0"); ok {
		t.Fatal("the least recently used text survived the bound")
	}
	if _, ok := eng.texts.Peek("text 1"); !ok {
		t.Fatal("the bound evicted more than one text")
	}
}
