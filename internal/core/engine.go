// Package core implements the paper's primary contribution: a database
// engine with two-stage query execution and automated lazy ingestion
// (ALi) over scientific file repositories.
//
// An Engine owns a column store, a catalog whose tables are split into
// metadata (M) and actual data (A), a format-adapter registry, an
// ingestion cache and (optionally) a derived-metadata store. In ALi mode
// only metadata is loaded up-front; every query is decomposed as
// Q = Qf ⋈ Qs, the metadata branch Qf runs first, the run-time
// optimization phase applies rewrite rule (1), and the second stage
// mounts exactly the files of interest. In Ei mode (the baseline) the
// whole repository is ingested eagerly and primary/foreign-key indexes
// are built before the first query.
package core

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/derived"
	"repro/internal/exec"
	"repro/internal/ingest"
	"repro/internal/lru"
	"repro/internal/mountsvc"
	"repro/internal/resultcache"
	"repro/internal/seismic"
	"repro/internal/storage"
	"repro/internal/vector"
)

// Mode selects the ingestion approach.
type Mode int

// Ingestion modes (the two systems compared in the paper's evaluation).
const (
	// ModeALi loads metadata only; actual data is ingested lazily per
	// query by the second execution stage.
	ModeALi Mode = iota
	// ModeEi ingests the entire repository eagerly up-front and builds
	// key indexes, like a conventional warehouse.
	ModeEi
)

func (m Mode) String() string {
	if m == ModeALi {
		return "ALi"
	}
	return "Ei"
}

// Options configures an Engine.
type Options struct {
	// Mode is ALi (default) or Ei.
	Mode Mode
	// DBDir holds column storage and indexes; RepoDir is the scientific
	// file repository being explored.
	DBDir   string
	RepoDir string
	// Adapter maps the repository's format onto the schema (defaults to
	// the seismic mSEED adapter).
	Adapter catalog.FormatAdapter
	// PoolPages sizes the buffer pool (defaults to 16384 pages = 1 GiB).
	PoolPages int
	// Cache configures the ingestion cache (defaults to NeverCache, the
	// paper's preliminary setting).
	Cache cache.Config
	// BatchSize overrides the execution batch size.
	BatchSize int
	// Parallelism bounds the worker pools of the parallel ingestion and
	// mount-scheduling subsystem: how many repository files are
	// extracted, decompressed and transformed concurrently during
	// up-front loads and during the second execution stage. 0 (the
	// default) selects runtime.GOMAXPROCS(0); 1 forces the sequential
	// paths. Query results are identical at every setting.
	Parallelism int
	// MountBudgetBytes bounds the admission held ACROSS all concurrent
	// queries of this engine — the mount service's admission gate. A
	// flight is charged its file's bytes when it starts extracting and
	// gives them back as its batches leave the window, so the budget
	// bounds batches some cursor has yet to read, not files being
	// extracted at once. Requests beyond the budget wait (in FIFO order, cancellable through QueryAs's context)
	// instead of OOMing the server; a single file larger than the whole
	// budget is admitted alone. <= 0 means unlimited.
	MountBudgetBytes int64
	// ResultCacheBytes enables the engine-wide result cache: completed
	// query results are retained frozen, keyed by canonical plan
	// fingerprint + invalidation epoch, and served to later identical
	// queries (and to concurrent identical queries, via query-granular
	// single-flight) as O(1) copy-on-write shares. > 0 bounds resident
	// result bytes; < 0 enables with no bound; 0 (the default) disables
	// the cache, keeping the paper-reproduction measurements honest.
	ResultCacheBytes int64
	// ResultCacheMinCost gates result-cache admission: results whose
	// recompute-cost signal (breakpoint estimate or measured modeled
	// time) is below it are not retained. 0 admits everything.
	ResultCacheMinCost time.Duration
	// ResultCacheSubsumption turns on semantic result caching: on an
	// exact-fingerprint miss, a wider cached result whose predicate
	// provably contains the query's (predicate subsumption over
	// normalized per-column intervals) is re-filtered in memory instead
	// of re-executing and re-mounting files. Sound and conservative —
	// only plans with no row-collapsing operator and interval-shaped
	// bounds over passthrough output columns participate. Requires
	// ResultCacheBytes != 0.
	ResultCacheSubsumption bool
	// SpillDir enables the result cache's disk tier: cold entries are
	// demoted to SpillDir/results instead of evicted — the same directory
	// a later Open warms the result cache from (repeat queries after a
	// restart serve with zero executions). Empty disables it. Mount
	// flights never write to disk.
	SpillDir string
	// SpillThresholdBytes is the window size of a mount flight: the
	// decoded bytes it keeps resident before its extractor waits for the
	// slowest attached cursor. Batches leaving the window give back
	// admission bytes, so a file whose decoded size exceeds
	// MountBudgetBytes completes. <= 0 leaves windows unbounded. It needs
	// no SpillDir.
	SpillThresholdBytes int64
	// ResultCacheDiskBytes bounds the result cache's disk tier (its own
	// LRU, counted separately from ResultCacheBytes which covers resident
	// bytes only); <= 0 means unlimited. Ignored without SpillDir.
	ResultCacheDiskBytes int64
	// EnableDerived turns on derived-metadata collection and answering.
	EnableDerived bool
	// StatsPlanning gates the statistics-free Stage-2 planner fed by the
	// frozen Qf result (see internal/stats). The zero value is on;
	// StatsPlanningOff restores pre-planner behaviour for A/B runs.
	StatsPlanning StatsPlanningMode
}

// IngestReport records what Open ingested.
type IngestReport struct {
	Mode     Mode
	Metadata ingest.MetadataResult
	Eager    *ingest.EagerResult
	// Wall and ModeledIO cover the whole up-front ingestion (the
	// data-to-insight time the paper measures).
	Wall      time.Duration
	ModeledIO time.Duration
}

// Engine is the two-stage query engine.
type Engine struct {
	opts    Options
	clock   *storage.Clock
	pool    *storage.BufferPool
	store   *storage.Store
	cat     *catalog.Catalog
	reg     *catalog.AdapterRegistry
	adapter catalog.FormatAdapter
	indexes []exec.IndexInfo
	cache   *cache.Manager
	derived *derived.Store
	mounts  *mountsvc.Service
	results *resultcache.Cache
	report  IngestReport
	allURIs []string
	qfSeq   atomic.Int64

	// texts remembers what each SQL text QueryAs has seen compiled to
	// (see compiledText in pipeline.go); textMu guards it.
	textMu sync.Mutex
	texts  *lru.List[string, compiledText]

	// Engine-lifetime statistics-free planner counters (see stats.go).
	statPrunedFiles     atomic.Int64
	statPrunedRecords   atomic.Int64
	statBytesNotMounted atomic.Int64
	statJoinBuildFlips  atomic.Int64

	// data-table column positions for the derived-metadata hook
	dataRIDCol, dataSpanCol, dataValCol int
}

// Open creates (or reopens) an engine over a repository and performs the
// mode's up-front ingestion.
func Open(opts Options) (*Engine, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.Adapter == nil {
		opts.Adapter = seismic.NewAdapter()
	}
	disk := storage.HDD7200()
	if opts.PoolPages == 0 {
		opts.PoolPages = 16384
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	clock := &storage.Clock{}
	pool := storage.NewBufferPool(opts.PoolPages, disk, clock)
	store, err := storage.Open(opts.DBDir, pool)
	if err != nil {
		return nil, err
	}
	cat := catalog.New()
	reg := catalog.NewRegistry()
	if err := reg.Register(opts.Adapter); err != nil {
		return nil, err
	}
	if err := ingest.EnsureTables(store, cat, opts.Adapter); err != nil {
		return nil, err
	}

	e := &Engine{
		opts: opts, clock: clock, pool: pool, store: store,
		cat: cat, reg: reg, adapter: opts.Adapter,
		cache: cache.New(opts.Cache),
		texts: lru.New[string, compiledText](maxCompiledTexts),
	}
	if opts.EnableDerived {
		e.derived = derived.NewStore()
	}
	if opts.SpillDir != "" {
		if err := os.MkdirAll(filepath.Join(opts.SpillDir, "results"), 0o755); err != nil {
			return nil, fmt.Errorf("core: create spill dir: %w", err)
		}
	}
	if opts.ResultCacheBytes != 0 {
		budget := opts.ResultCacheBytes
		if budget < 0 {
			budget = 0 // unlimited
		}
		rcCfg := resultcache.Config{
			MaxBytes: budget,
			MinCost:  opts.ResultCacheMinCost,
		}
		if opts.SpillDir != "" {
			rcCfg.SpillDir = filepath.Join(opts.SpillDir, "results")
			rcCfg.DiskMaxBytes = opts.ResultCacheDiskBytes
			rcCfg.Disk = disk
			rcCfg.Clock = clock
		}
		e.results = resultcache.New(rcCfg)
		// Invalidation wiring: any ingestion-cache Drop/Clear signals the
		// underlying repository data may have changed, so every retained
		// result becomes unservable at once.
		e.cache.SetOnInvalidate(e.results.BumpEpoch)
	}
	if err := e.locateDataColumns(); err != nil {
		return nil, err
	}
	// The engine-owned mount service: all queries share one extraction
	// path, so concurrent identical queries coalesce onto single flights
	// and the admission budget holds across the whole engine.
	svcCfg := mountsvc.Config{
		RepoDir:             opts.RepoDir,
		Pool:                pool,
		Cache:               e.cache,
		BudgetBytes:         opts.MountBudgetBytes,
		SpillThresholdBytes: opts.SpillThresholdBytes,
	}
	if e.derived != nil && e.dataValCol >= 0 && e.dataRIDCol >= 0 && e.dataSpanCol >= 0 {
		rid, span, val := e.dataRIDCol, e.dataSpanCol, e.dataValCol
		store := e.derived
		// Batches are record-aligned, so per-record summaries derived per
		// batch are exactly the summaries of the whole file.
		svcCfg.OnMount = func(uri string, full *vector.Batch) {
			store.Observe(uri, full, rid, span, val)
		}
	}
	e.mounts = mountsvc.New(svcCfg)
	uris, err := listRepoFiles(opts.RepoDir)
	if err != nil {
		return nil, err
	}
	e.allURIs = uris

	// Up-front ingestion, unless the database already holds the data.
	fileDef, _, _ := opts.Adapter.Tables()
	fileTbl := store.MustTable(fileDef.Name)
	start := time.Now()
	ioStart := clock.Elapsed()
	e.report.Mode = opts.Mode
	if fileTbl.Rows() == 0 {
		switch opts.Mode {
		case ModeALi:
			meta, err := ingest.LoadMetadataParallel(store, opts.Adapter, opts.RepoDir, uris, opts.Parallelism)
			if err != nil {
				return nil, err
			}
			e.report.Metadata = meta
		case ModeEi:
			eager, err := ingest.LoadEagerParallel(store, opts.Adapter, opts.RepoDir, uris, true, opts.Parallelism)
			if err != nil {
				return nil, err
			}
			e.report.Metadata = eager.Meta
			e.report.Eager = &eager
			e.indexes = eager.Indexes
		}
	} else if opts.Mode == ModeEi {
		// Reopened eager database: reattach indexes.
		infos, _, err := ingest.BuildKeyIndexes(store, opts.Adapter)
		if err != nil {
			return nil, err
		}
		e.indexes = infos
	}
	e.report.Wall = time.Since(start)
	e.report.ModeledIO = clock.Elapsed() - ioStart
	return e, nil
}

// validate rejects options Open cannot honour, instead of dropping them.
func (o Options) validate() error {
	switch {
	case o.RepoDir == "" || o.DBDir == "":
		return fmt.Errorf("core: Options needs RepoDir and DBDir")
	case o.ResultCacheSubsumption && o.ResultCacheBytes == 0:
		return fmt.Errorf("core: ResultCacheSubsumption requires ResultCacheBytes")
	}
	return nil
}

// locateDataColumns finds the record-id, span and value columns of the
// data table, used by the derived-metadata hook. The value column is the
// first DOUBLE column that is neither the span nor the record id.
func (e *Engine) locateDataColumns() error {
	_, _, dataDef := e.adapter.Tables()
	e.dataRIDCol = dataDef.ColumnIndex(e.adapter.RecordIDColumn())
	e.dataSpanCol = dataDef.ColumnIndex(e.adapter.DataSpanColumn())
	e.dataValCol = -1
	for i, c := range dataDef.Columns {
		if c.Kind == vector.KindFloat64 && i != e.dataSpanCol && i != e.dataRIDCol {
			e.dataValCol = i
			break
		}
	}
	return nil
}

// Close releases storage handles and indexes. With a spill directory
// configured it also persists the result cache (entries plus manifest),
// so the next Open over the same directories starts warm.
func (e *Engine) Close() error {
	for _, ix := range e.indexes {
		ix.Index.Close()
	}
	cacheErr := e.results.Close() // nil-safe; no-op without a spill dir
	storeErr := e.store.Close()
	if storeErr != nil {
		return storeErr
	}
	return cacheErr
}

// Report returns the up-front ingestion report.
func (e *Engine) Report() IngestReport { return e.report }

// Mode returns the engine's ingestion mode.
func (e *Engine) Mode() Mode { return e.opts.Mode }

// Catalog exposes the schema (read-only use).
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Store exposes the column store (benchmarks measure its size).
func (e *Engine) Store() *storage.Store { return e.store }

// Pool exposes the buffer pool (the cold/hot protocol flushes it).
func (e *Engine) Pool() *storage.BufferPool { return e.pool }

// Clock exposes the modeled-I/O clock.
func (e *Engine) Clock() *storage.Clock { return e.clock }

// Cache exposes the ingestion cache.
func (e *Engine) Cache() *cache.Manager { return e.cache }

// Derived exposes the derived-metadata store (nil unless enabled).
func (e *Engine) Derived() *derived.Store { return e.derived }

// MountService exposes the shared mount service (single-flight and
// admission-budget statistics).
func (e *Engine) MountService() *mountsvc.Service { return e.mounts }

// ResultCache exposes the engine-wide result cache (nil when disabled;
// its methods are nil-safe).
func (e *Engine) ResultCache() *resultcache.Cache { return e.results }

// NotifyFileChanged tells the engine one repository file's content
// changed: its ingestion-cache entry is dropped and — through the
// invalidation wiring — the result cache's epoch is bumped, forcing
// every later query to re-execute against the new data.
func (e *Engine) NotifyFileChanged(uri string) {
	// Drop fires the invalidation hook whether or not the URI (or any
	// entry at all — NeverCache) was resident.
	e.cache.Drop(uri)
}

// RepoFiles returns the URIs of every repository file.
func (e *Engine) RepoFiles() []string {
	out := make([]string, len(e.allURIs))
	copy(out, e.allURIs)
	return out
}

// IndexBytes totals the on-disk size of the engine's key indexes.
func (e *Engine) IndexBytes() int64 {
	var total int64
	for _, ix := range e.indexes {
		total += ix.Index.SizeOnDisk()
	}
	return total
}

// FlushCold empties the buffer pool — the paper's "cold" protocol
// ("right after restarting the server with all buffers flushed").
func (e *Engine) FlushCold() {
	e.pool.Flush()
}

// listRepoFiles returns the regular files of a repository directory,
// sorted for determinism.
func listRepoFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("core: list repository %s: %w", dir, err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		out = append(out, e.Name())
	}
	sort.Strings(out)
	return out, nil
}
