package exec

import (
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/mountsvc"
	"repro/internal/plan"
	"repro/internal/repo"
	"repro/internal/seismic"
	"repro/internal/storage"
	"repro/internal/vector"
)

// mountEnv prepares a repository, adapter registry and environment for
// direct mount-operator tests.
func mountEnv(t *testing.T, cacheCfg cache.Config) (*Env, *repo.Manifest, catalog.TableDef) {
	t.Helper()
	spec := repo.DefaultSpec(t.TempDir())
	spec.Stations = spec.Stations[:1]
	spec.Channels = spec.Channels[:1]
	spec.Days = 1
	spec.RecordsPerFile = 4
	spec.SamplesPerRecord = 250
	m, err := repo.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	pool := storage.NewBufferPool(256, storage.NoCost(), nil)
	store, err := storage.Open(t.TempDir(), pool)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	reg := catalog.NewRegistry()
	ad := seismic.NewAdapter()
	if err := reg.Register(ad); err != nil {
		t.Fatal(err)
	}
	_, _, dataDef := ad.Tables()
	env := &Env{
		Store:    store,
		Adapters: reg,
		Cache:    cache.New(cacheCfg),
		Results:  make(map[string]*Materialized),
		Mounts:   &MountStats{},
	}
	return withService(env, m.Dir, mountsvc.Config{}), m, dataDef
}

// withService gives env a mount service over the repository at dir and
// the env's own buffer pool and ingestion cache; cfg supplies the rest
// (a hook, a window).
func withService(env *Env, dir string, cfg mountsvc.Config) *Env {
	cfg.RepoDir, cfg.Pool, cfg.Cache = dir, env.Store.Pool(), env.Cache
	env.MountSvc = mountsvc.New(cfg)
	return env
}

func mountNode(m *repo.Manifest, def catalog.TableDef, pred expr.Expr) *plan.Mount {
	return &plan.Mount{
		URI: m.Files[0].URI, Adapter: seismic.AdapterName,
		Binding: "D", Def: def, Pred: pred,
	}
}

func spanPred(def catalog.TableDef, lo, hi int64) expr.Expr {
	schema := (&plan.Mount{Binding: "D", Def: def}).Schema()
	idx := plan.FindColumn(schema, "D.sample_time")
	c := &expr.Col{Index: idx, Name: "D.sample_time", K: vector.KindTime}
	return expr.JoinAnd([]expr.Expr{
		&expr.Compare{Op: expr.Ge, L: c, R: &expr.Const{Val: vector.Time(lo)}},
		&expr.Compare{Op: expr.Le, L: c, R: &expr.Const{Val: vector.Time(hi)}},
	})
}

func TestMountFullFileRows(t *testing.T) {
	env, m, def := mountEnv(t, cache.Config{})
	mat, err := Run(mountNode(m, def, nil), env)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Rows() != 1000 {
		t.Fatalf("mounted %d rows, want 1000", mat.Rows())
	}
	if env.Mounts.FilesMounted != 1 || env.Mounts.RecordsPruned != 0 {
		t.Errorf("stats = %+v", env.Mounts)
	}
}

func TestMountFusedSelectionPrunes(t *testing.T) {
	env, m, def := mountEnv(t, cache.Config{})
	f := m.Files[0]
	// Window inside the first record only: three of four records prunable.
	recDur := (f.EndTime - f.StartTime) / 4
	pred := spanPred(def, f.StartTime, f.StartTime+recDur/2)
	mat, err := Run(mountNode(m, def, pred), env)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Rows() == 0 || mat.Rows() >= 1000 {
		t.Fatalf("σ∘mount returned %d rows", mat.Rows())
	}
	if env.Mounts.RecordsPruned == 0 {
		t.Error("no record pruned before decompression")
	}
	// Every surviving row satisfies the predicate.
	flat := mat.Flatten()
	for _, ts := range flat.Cols[2].Int64s() {
		if ts < f.StartTime || ts > f.StartTime+recDur/2 {
			t.Fatal("σ∘mount leaked a row outside the window")
		}
	}
}

func TestMountOnMountHookSeesFullRecords(t *testing.T) {
	env, m, def := mountEnv(t, cache.Config{})
	var hookRows int
	withService(env, m.Dir, mountsvc.Config{
		OnMount: func(uri string, full *vector.Batch) { hookRows = full.Len() },
	})
	f := m.Files[0]
	pred := spanPred(def, f.StartTime, f.StartTime+1) // ~1 row survives
	mat, err := Run(mountNode(m, def, pred), env)
	if err != nil {
		t.Fatal(err)
	}
	// The hook observes the decoded records BEFORE the row filter, so its
	// derived summaries describe whole records.
	if hookRows <= mat.Rows() {
		t.Errorf("hook saw %d rows, result has %d; hook must see pre-filter data", hookRows, mat.Rows())
	}
}

func TestCacheScanServesAndFallsBack(t *testing.T) {
	cfg := cache.Config{Policy: cache.LRU, Granularity: cache.FileGranular}
	env, m, def := mountEnv(t, cfg)

	// Mount once to populate the cache.
	if _, err := Run(mountNode(m, def, nil), env); err != nil {
		t.Fatal(err)
	}
	if env.Cache.Stats().Entries != 1 {
		t.Fatal("mount did not populate the cache")
	}

	cs := &plan.CacheScan{
		URI: m.Files[0].URI, Adapter: seismic.AdapterName, Binding: "D", Def: def,
	}
	mat, err := Run(cs, env)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Rows() != 1000 || env.Mounts.CacheHits != 1 {
		t.Errorf("cache-scan rows=%d hits=%d", mat.Rows(), env.Mounts.CacheHits)
	}

	// Evict and scan again: must fall back to mounting, same rows.
	env.Cache.Clear()
	before := env.Mounts.FilesMounted
	mat, err = Run(cs, env)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Rows() != 1000 {
		t.Errorf("fallback rows = %d", mat.Rows())
	}
	if env.Mounts.FilesMounted != before+1 {
		t.Error("eviction fallback did not mount")
	}
}

func TestCacheScanWithoutCacheErrors(t *testing.T) {
	env, m, def := mountEnv(t, cache.Config{})
	env.Cache = nil
	cs := &plan.CacheScan{URI: m.Files[0].URI, Adapter: seismic.AdapterName, Binding: "D", Def: def}
	if _, err := Run(cs, env); err == nil {
		t.Error("cache-scan without a cache succeeded")
	}
}

func TestMountUnknownAdapter(t *testing.T) {
	env, m, def := mountEnv(t, cache.Config{})
	n := mountNode(m, def, nil)
	n.Adapter = "bogus"
	if _, err := Run(n, env); err == nil {
		t.Error("mount with unknown adapter succeeded")
	}
}

func TestMountMissingFile(t *testing.T) {
	env, m, def := mountEnv(t, cache.Config{})
	n := mountNode(m, def, nil)
	n.URI = "not-there.mseed"
	if _, err := Run(n, env); err == nil {
		t.Error("mount of missing file succeeded")
	}
}

func TestFileGranularCachePutsWholeFile(t *testing.T) {
	cfg := cache.Config{Policy: cache.LRU, Granularity: cache.FileGranular}
	env, m, def := mountEnv(t, cfg)
	f := m.Files[0]
	// Even a narrow σ∘mount must cache the WHOLE file under file
	// granularity (pruning is disabled so the cached entry is complete).
	pred := spanPred(def, f.StartTime, f.StartTime+1)
	if _, err := Run(mountNode(m, def, pred), env); err != nil {
		t.Fatal(err)
	}
	cached, ok := env.Cache.Get(f.URI, cache.FullSpan())
	if !ok {
		t.Fatal("file not cached")
	}
	if n := vector.Concat(cached).Len(); n != 1000 {
		t.Errorf("cached %d rows, want the full 1000", n)
	}
}

func TestTupleGranularCachePutsFilteredSpan(t *testing.T) {
	cfg := cache.Config{Policy: cache.LRU, Granularity: cache.TupleGranular}
	env, m, def := mountEnv(t, cfg)
	f := m.Files[0]
	hi := f.StartTime + (f.EndTime-f.StartTime)/8
	pred := spanPred(def, f.StartTime, hi)
	if _, err := Run(mountNode(m, def, pred), env); err != nil {
		t.Fatal(err)
	}
	if _, ok := env.Cache.Get(f.URI, cache.Span{Lo: f.StartTime, Hi: hi}); !ok {
		t.Error("tuple span not served")
	}
	if _, ok := env.Cache.Get(f.URI, cache.FullSpan()); ok {
		t.Error("tuple entry wrongly covers the full file")
	}
}

func TestCacheFallbackCounted(t *testing.T) {
	cfg := cache.Config{Policy: cache.LRU, Granularity: cache.FileGranular}
	env, m, def := mountEnv(t, cfg)
	if _, err := Run(mountNode(m, def, nil), env); err != nil {
		t.Fatal(err)
	}
	cs := &plan.CacheScan{URI: m.Files[0].URI, Adapter: seismic.AdapterName, Binding: "D", Def: def}
	if _, err := Run(cs, env); err != nil {
		t.Fatal(err)
	}
	if env.Mounts.CacheFallbacks != 0 {
		t.Errorf("hit counted as fallback: %+v", env.Mounts)
	}
	// Evict between planning and execution: the re-mount must be
	// recorded, or benchmark numbers misattribute cache efficacy.
	env.Cache.Clear()
	if _, err := Run(cs, env); err != nil {
		t.Fatal(err)
	}
	if env.Mounts.CacheFallbacks != 1 {
		t.Errorf("CacheFallbacks = %d, want 1 (stats %+v)", env.Mounts.CacheFallbacks, env.Mounts)
	}
}

// TestCachedEntrySurvivesDownstreamMutation is the aliasing regression,
// restated for copy-on-write: batches served from the ingestion cache
// are O(1) shares of the entry, and any downstream mutation — a sort's
// in-place permute, or a client writing through the vector mutation
// API — materializes private storage and leaves the cached entry
// untouched.
func TestCachedEntrySurvivesDownstreamMutation(t *testing.T) {
	cfg := cache.Config{Policy: cache.LRU, Granularity: cache.FileGranular}
	env, m, def := mountEnv(t, cfg)
	if _, err := Run(mountNode(m, def, nil), env); err != nil {
		t.Fatal(err)
	}
	entry, ok := env.Cache.Get(m.Files[0].URI, cache.FullSpan())
	if !ok {
		t.Fatal("file not cached")
	}
	wantFirst := entry[0].Cols[3].Float64s()[0]

	cs := &plan.CacheScan{URI: m.Files[0].URI, Adapter: seismic.AdapterName, Binding: "D", Def: def}
	// A descending sort over the cache-scan reorders every row.
	sorted, err := Run(&plan.Sort{Keys: []plan.SortKey{{Index: 2, Desc: true}}, Child: cs}, env)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the query's output in place, as a hostile client might.
	for _, b := range sorted.Batches {
		vals := b.Cols[3].MutableFloat64s()
		for i := range vals {
			vals[i] = -12345
		}
	}
	entry2, ok := env.Cache.Get(m.Files[0].URI, cache.FullSpan())
	if !ok {
		t.Fatal("entry vanished")
	}
	if got := entry2[0].Cols[3].Float64s()[0]; got != wantFirst {
		t.Fatalf("cached entry corrupted: first value %v, want %v", got, wantFirst)
	}
	ts := vector.Concat(entry2).Cols[2].Int64s()
	for i := 1; i < len(ts); i++ {
		if ts[i] < ts[i-1] {
			t.Fatal("cached entry row order changed by downstream sort")
		}
	}
}

// TestResultScanSharesAreCopyOnWrite proves the same discipline for
// replayed materialized results: incremental-ingestion rounds replay
// one shared Qf result through O(1) shares, and mutating a
// replayed batch materializes a private copy instead of corrupting the
// shared materialization.
func TestResultScanSharesAreCopyOnWrite(t *testing.T) {
	env, _, _ := mountEnv(t, cache.Config{})
	schema := []plan.ColInfo{{Table: "qf", Name: "x", Kind: vector.KindInt64}}
	mat := &Materialized{
		Schema:  schema,
		Batches: []*vector.Batch{vector.NewBatch(vector.FromInt64([]int64{1, 2, 3}))},
	}
	env.Results["qf"] = mat
	rs := &plan.ResultScan{Name: "qf", Cols: schema}

	// Replaying must not deep-copy: the share is O(1).
	copies := vector.CowCopies()
	out, err := Run(rs, env)
	if err != nil {
		t.Fatal(err)
	}
	if got := vector.CowCopies() - copies; got != 0 {
		t.Errorf("replay performed %d copies, want 0", got)
	}

	out.Batches[0].Cols[0].Set(0, vector.Int64(-99))
	if got := mat.Batches[0].Cols[0].Int64s()[0]; got != 1 {
		t.Fatalf("shared materialized result corrupted: %d", got)
	}
	// And replaying again still sees pristine values.
	again, err := Run(&plan.ResultScan{Name: "qf", Cols: schema}, env)
	if err != nil {
		t.Fatal(err)
	}
	if got := again.Batches[0].Cols[0].Int64s()[0]; got != 1 {
		t.Fatalf("second replay saw mutated value: %d", got)
	}
}

// TestConcurrentMountsOfOneFile drives K mount operators of the same
// file in parallel against one env: the shared service must coalesce
// them onto a single extraction while every operator sees every row.
func TestConcurrentMountsOfOneFile(t *testing.T) {
	env, m, def := mountEnv(t, cache.Config{Policy: cache.LRU, Granularity: cache.FileGranular})
	const k = 8
	var wg sync.WaitGroup
	rows := make([]int, k)
	errs := make([]error, k)
	var start sync.WaitGroup
	start.Add(1)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			mat, err := Run(mountNode(m, def, nil), env)
			if err != nil {
				errs[i] = err
				return
			}
			rows[i] = mat.Rows()
		}(i)
	}
	start.Done()
	wg.Wait()
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if rows[i] != 1000 {
			t.Errorf("query %d saw %d rows, want 1000", i, rows[i])
		}
	}
	ms := env.MountsSnapshot()
	if ms.FilesMounted != 1 {
		t.Errorf("FilesMounted = %d, want 1 (single-flight)", ms.FilesMounted)
	}
	if ms.SingleFlightHits+ms.CacheHits != k-1 {
		t.Errorf("SingleFlightHits=%d + CacheHits=%d, want %d: every other query rides the flight or its cache entry",
			ms.SingleFlightHits, ms.CacheHits, k-1)
	}
}

// TestMountAttachesAtFirstNext pins the invariant that keeps a query
// from deadlocking on itself once a flight waits for its reading
// cursors: a Mount operator attaches no cursor when it is built, only at
// its first Next, and a sequential union holds at most one undrained
// mount cursor at a time — input i+1 is not mounted before input i has
// drained, so it cannot even ride input i's flight.
func TestMountAttachesAtFirstNext(t *testing.T) {
	env, m, def := mountEnv(t, cache.Config{})
	const inputs, fileRows = 3, 1000
	u := &plan.UnionAll{}
	for range inputs {
		u.Inputs = append(u.Inputs, mountNode(m, def, nil))
	}
	op, err := Build(u, env)
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	if st := env.MountSvc.Stats(); st.FlightsStarted != 0 {
		t.Fatalf("Build attached %d mount cursors, want 0", st.FlightsStarted)
	}
	rows := 0
	for {
		b, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		rows += b.Len()
		st := env.MountSvc.Stats()
		if want := int64((rows-1)/fileRows + 1); st.FlightsStarted != want || st.SingleFlightHits != 0 {
			t.Fatalf("after %d rows: %d flights, %d joins; want %d and 0 (one undrained input at a time)",
				rows, st.FlightsStarted, st.SingleFlightHits, want)
		}
	}
	if rows != inputs*fileRows {
		t.Fatalf("union emitted %d rows, want %d", rows, inputs*fileRows)
	}
}
