// Package resultcache is the engine-wide result cache sitting above the
// mount service: where the mount service dedups the *extraction* of one
// file across concurrent queries, the result cache dedups the *entire
// execution* of one query across clients and across time. Entries are
// final materialized results, stored frozen and served as O(1)
// copy-on-write shares (vector.Batch.Share), keyed by the canonical plan
// fingerprint plus an invalidation epoch:
//
//   - Fingerprint keying: the plan layer normalizes semantically
//     equivalent spellings (reordered conjuncts, swapped join sides,
//     aliases, foldable constants) onto one plan.Fingerprint, so a zoom
//     session re-issuing the same query in different shapes keeps
//     hitting one entry.
//   - Invalidation epochs: a result is stored only under the epoch its
//     execution began in, and only current-epoch entries are served. A
//     repo or ingestion-cache change bumps the epoch (the engine wires
//     the hook), atomically invalidating every retained result. An
//     execution that straddles the bump publishes to the riders that
//     joined it before the bump but is not retained — and a query
//     arriving after the bump neither serves stale entries nor rides
//     stale flights: it has observed "the data changed" and re-executes.
//   - Query-granular single-flight: concurrent identical queries
//     coalesce onto one execution, mirroring the mount service's flights
//     one layer up — the leader executes, riders block and then receive
//     shares of the frozen result, paying O(1) instead of a full Qf+Qs
//     execution each.
//   - Byte-budget LRU: resident results are accounted with Batch.Bytes
//     and evicted least-recently-served first (internal/lru, the
//     engine's one LRU).
//   - Cost-gated admission: a result whose recompute cost signal (the
//     engine passes the breakpoint's cardinality-derived estimate or the
//     measured modeled time, whichever is larger) falls below the
//     configured floor is served to its riders but not retained — cheap
//     metadata lookups never crowd out expensive multi-file scans.
//   - Subsumption index: entries whose plans carry a subsumption summary
//     (plan.SubsumptionInfo) are additionally indexed by their
//     plan.SubsumptionKey — the bucket of structurally identical plans
//     differing only in re-filterable interval constants. On an exact
//     fingerprint miss, GetSubsuming probes the narrow query's bucket for
//     a current-epoch entry whose intervals contain the query's; the
//     engine re-filters that wider frozen entry in memory instead of
//     mounting files (the classic semantic-caching move).
//
// All methods are nil-safe: a nil *Cache never caches and never
// coalesces, so the engine threads it through unconditionally.
package resultcache

import (
	"errors"
	"os"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/lru"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Config parameterizes a Cache.
type Config struct {
	// MaxBytes bounds resident result bytes; <= 0 means unlimited.
	MaxBytes int64
	// MinCost gates admission: results whose recompute-cost signal is
	// below it are not retained (riders of an in-flight execution are
	// still served). Zero admits everything.
	MinCost time.Duration
	// SpillDir enables the disk tier (see spill.go): cold entries are
	// demoted to spill files here instead of evicted, and the directory
	// doubles as the restart-persistence store. Empty disables the tier.
	SpillDir string
	// DiskMaxBytes bounds the disk tier; <= 0 means unlimited.
	DiskMaxBytes int64
	// Disk and Clock charge demotion writes and promotion reads to the
	// engine's modeled I/O accounting. The zero-value Disk charges
	// nothing.
	Disk  storage.DiskModel
	Clock *storage.Clock
}

// Stats is a snapshot of cache counters.
type Stats struct {
	// Hits counts probes served from a stored entry; Riders counts
	// queries that coalesced onto another client's in-flight execution.
	Hits, Misses, Riders int64
	// Stores / RejectedStores split completed executions into retained
	// and admission-rejected (cost floor or epoch raced) ones.
	Stores, RejectedStores int64
	// Evictions counts LRU budget evictions; Invalidations counts
	// entries dropped by epoch bumps.
	Evictions, Invalidations int64
	// Subsumption counters: probes of the secondary index on exact miss,
	// hits served by re-filtering a wider entry, the bytes of wider
	// entries served that way instead of re-executed and re-mounted, and
	// the cumulative wall time the engine spent re-filtering.
	SubsumptionProbes, SubsumptionHits int64
	SubsumptionBytesSaved              int64
	RefilterWall                       time.Duration
	// Disk-tier counters: entries demoted to spill files instead of
	// evicted, spilled entries promoted back on a hit, entries dropped by
	// the disk tier's own LRU, and entries warmed from a previous
	// process's manifest at open.
	Demotions, Promotions, DiskEvictions, WarmedFromDisk int64
	// BytesResident / Entries describe current occupancy; BytesOnDisk /
	// DiskEntries the disk tier's; Epoch is the current invalidation
	// epoch.
	BytesResident int64
	Entries       int
	BytesOnDisk   int64
	DiskEntries   int
	Epoch         uint64
}

// Outcome reports how a Do call was satisfied.
type Outcome struct {
	// Hit: served from the cache (stored entry, or a flight ridden).
	Hit bool
	// Rider: the call coalesced onto another client's in-flight
	// execution. Set on error returns too, so a caller can tell an
	// inherited failure (the LEADER died — e.g. of its own context)
	// from its own and re-resolve instead of failing a live query.
	Rider bool
	// Stored: this call led the execution and the result was retained.
	Stored bool
}

// Cache is the result cache. It is safe for concurrent use.
type Cache struct {
	cfg Config

	mu      sync.Mutex
	epoch   uint64
	flights map[plan.Fingerprint]*flight

	// The two tiers, each entry in exactly one and costing its bytes:
	// res holds resident entries by served recency, disk (spill.go) the
	// spilled ones by demotion recency. Every entry is of the current
	// epoch: BumpEpoch empties both.
	res, disk *lru.List[plan.Fingerprint, *entry]

	// subindex is the secondary semantic index: subsumption bucket →
	// fingerprints of entries (either tier) carrying that key. Only
	// entries stored with a non-nil summary appear.
	subindex map[plan.SubsumptionKey]map[plan.Fingerprint]struct{}

	hits, misses, riders int64
	stores, rejected     int64
	evictions            int64
	invalidated          int64

	subProbes, subHits int64
	subBytesSaved      int64
	refilterWall       time.Duration

	demotions, promotions, diskEvictions, warmed int64
}

type entry struct {
	fp      plan.Fingerprint
	session string             // the storing client, recorded in the manifest
	mat     *exec.Materialized // nil while spilled to disk
	bytes   int64
	cost    time.Duration         // recompute-cost signal it was admitted with
	sub     *plan.SubsumptionInfo // nil: not semantically indexed
	path    string                // spill file; non-empty marks the entry spilled
	schema  []plan.ColInfo        // result schema, kept for promotion
}

// flight is one in-progress execution other identical queries wait on.
// epoch is the invalidation epoch the execution began under: a query
// arriving after a bump must not ride a pre-change flight.
type flight struct {
	done  chan struct{}
	mat   *exec.Materialized // frozen at publish
	err   error
	epoch uint64
}

// New returns a cache over the configuration. With a spill directory
// configured it is also the warm-restart path: a manifest left by a
// previous Close is loaded and its entries served from disk.
func New(cfg Config) *Cache {
	c := &Cache{
		cfg:      cfg,
		flights:  make(map[plan.Fingerprint]*flight),
		res:      lru.New[plan.Fingerprint, *entry](cfg.MaxBytes),
		disk:     lru.New[plan.Fingerprint, *entry](cfg.DiskMaxBytes),
		subindex: make(map[plan.SubsumptionKey]map[plan.Fingerprint]struct{}),
	}
	if c.spillEnabled() {
		os.MkdirAll(cfg.SpillDir, 0o755)
		c.loadManifest()
	}
	return c
}

// Epoch returns the current invalidation epoch.
func (c *Cache) Epoch() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// BumpEpoch advances the invalidation epoch, dropping every stored
// entry: results computed before the bump are never served after it.
// In-flight executions keep serving their riders but will not be
// retained.
func (c *Cache) BumpEpoch() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	c.invalidated += int64(c.res.Len() + c.disk.Len())
	// The disk tier invalidates with everything else: pre-change results
	// must not survive to warm a post-change process either.
	c.disk.All(func(_ plan.Fingerprint, e *entry) { os.Remove(e.path) })
	c.res.Clear()
	c.disk.Clear()
	c.subindex = make(map[plan.SubsumptionKey]map[plan.Fingerprint]struct{})
}

// Get returns the frozen entry for a fingerprint at the current epoch.
// The returned materialization is the cache's own (frozen) storage:
// serve it to a client through exec.ServeCachedResult, which emits
// copy-on-write shares.
func (c *Cache) Get(fp plan.Fingerprint) (*exec.Materialized, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	//lint:allow lockcheck spill promotion is serialized under c.mu by design: an entry's tier state must not change between probe and load (see spill.go)
	mat, ok := c.getLocked(fp)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return mat, ok
}

func (c *Cache) getLocked(fp plan.Fingerprint) (*exec.Materialized, bool) {
	if e, ok := c.entryLocked(fp); ok {
		return c.serveLocked(e)
	}
	return nil, false
}

// entryLocked finds fp's entry in whichever tier holds it.
func (c *Cache) entryLocked(fp plan.Fingerprint) (*entry, bool) {
	if e, ok := c.res.Peek(fp); ok {
		return e, true
	}
	return c.disk.Peek(fp)
}

// serveLocked returns a hit entry's materialization. A spilled entry is
// promoted back to the resident tier (a corrupt spill file drops it and
// the probe is a miss); a resident one becomes the most recently
// served.
func (c *Cache) serveLocked(e *entry) (*exec.Materialized, bool) {
	if e.path != "" {
		c.disk.Remove(e.fp)
		return c.promoteLocked(e)
	}
	c.res.Get(e.fp)
	return e.mat, true
}

// SubsumeHit describes a wider entry found by GetSubsuming: whose
// fingerprint it is stored under, the frozen materialization to
// re-filter, its resident bytes (the re-execution the probe saved) and
// the recompute-cost signal it was admitted with (the ceiling for
// admitting the re-filtered slice as its own entry).
type SubsumeHit struct {
	Fp    plan.Fingerprint
	Mat   *exec.Materialized
	Bytes int64
	Cost  time.Duration
}

// DoNotStore is the cost sentinel a Do leader (or PutAt caller) passes
// to decline retention outright — e.g. a subsumption-served slice that
// filtered nothing away, which would duplicate its source entry. Unlike
// a low cost it is not counted as an admission rejection.
const DoNotStore time.Duration = -1

// GetSubsuming probes the semantic index for a current-epoch entry able
// to answer the query summarized by sub: same subsumption bucket,
// intervals containing the query's. The smallest such entry wins (least
// re-filter work). The caller re-filters the returned frozen
// materialization through sub.Refilter. Misses and nil summaries are
// not counted against the exact-match hit/miss counters.
func (c *Cache) GetSubsuming(fp plan.Fingerprint, sub *plan.SubsumptionInfo) (SubsumeHit, bool) {
	if c == nil || sub == nil || sub.Key.IsZero() {
		return SubsumeHit{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.subProbes++
	// A spilled candidate can lose to promotion (corrupt file) and drop
	// out; re-select until a candidate survives or none remain.
	for {
		var best *entry
		for cand := range c.subindex[sub.Key] {
			e, ok := c.entryLocked(cand)
			if ok && e.fp != fp && plan.Subsumes(e.sub, sub) && (best == nil || e.bytes < best.bytes) {
				best = e
			}
		}
		if best == nil {
			return SubsumeHit{}, false
		}
		//lint:allow lockcheck spill promotion is serialized under c.mu by design: an entry's tier state must not change between probe and load (see spill.go)
		if mat, ok := c.serveLocked(best); ok {
			c.subHits++
			return SubsumeHit{Fp: best.fp, Mat: mat, Bytes: best.bytes, Cost: best.cost}, true
		}
	}
}

// NoteRefilter accounts one subsumption serve: the wall time spent
// re-filtering and the bytes of re-execution it saved.
func (c *Cache) NoteRefilter(wall time.Duration, saved int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.refilterWall += wall
	c.subBytesSaved += saved
}

// Put retains a completed result under the current epoch, subject to the
// cost-admission floor; session names the storing client. The entry holds
// the materialization frozen: the caller keeps its handle and any later
// mutation on either side materializes a private copy. A non-nil sub
// additionally indexes the entry for semantic (subsumption) probes.
func (c *Cache) Put(fp plan.Fingerprint, session string, mat *exec.Materialized, cost time.Duration) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	//lint:allow lockcheck demotion-based eviction is serialized under c.mu by design: admission and spill share one byte ledger (see spill.go)
	return c.admitLocked(fp, session, mat, cost, c.epoch, nil)
}

// PutAt is Put with an epoch-straddle guard: startEpoch is the epoch the
// caller observed when the execution began, and a result computed across
// an invalidation (the epoch moved on) is rejected — it may reflect
// pre-change data.
func (c *Cache) PutAt(fp plan.Fingerprint, session string, mat *exec.Materialized, cost time.Duration, startEpoch uint64, sub *plan.SubsumptionInfo) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	//lint:allow lockcheck demotion-based eviction is serialized under c.mu by design: admission and spill share one byte ledger (see spill.go)
	return c.admitLocked(fp, session, mat, cost, startEpoch, sub)
}

// admitLocked applies the admission rules (cost floor, epoch match) and
// stores on success; callers hold the lock. A DoNotStore cost declines
// without counting as a rejection.
func (c *Cache) admitLocked(fp plan.Fingerprint, session string, mat *exec.Materialized, cost time.Duration, startEpoch uint64, sub *plan.SubsumptionInfo) bool {
	if mat == nil || cost == DoNotStore {
		return false
	}
	if startEpoch != c.epoch || cost < c.cfg.MinCost {
		c.rejected++
		return false
	}
	mat.Freeze()
	c.putLocked(&entry{fp: fp, session: session, mat: mat, bytes: matBytes(mat), cost: cost, sub: sub, schema: mat.Schema})
	c.stores++
	return true
}

// putLocked stores a resident entry, replacing whatever either tier held
// under its fingerprint.
func (c *Cache) putLocked(e *entry) {
	if old, ok := c.res.Remove(e.fp); ok {
		c.dropLocked(old)
	} else if old, ok := c.disk.Remove(e.fp); ok {
		c.dropLocked(old)
	}
	c.res.Put(e.fp, e, e.bytes)
	c.indexLocked(e)
	c.evictLocked()
}

// indexLocked adds an entry carrying a subsumption summary to the
// semantic index.
func (c *Cache) indexLocked(e *entry) {
	if e.sub == nil || e.sub.Key.IsZero() {
		return
	}
	bucket := c.subindex[e.sub.Key]
	if bucket == nil {
		bucket = make(map[plan.Fingerprint]struct{})
		c.subindex[e.sub.Key] = bucket
	}
	bucket[e.fp] = struct{}{}
}

// dropLocked forgets an entry that has left its tier: a spilled entry's
// file is deleted, and the entry leaves the semantic index.
func (c *Cache) dropLocked(e *entry) {
	if e.path != "" {
		os.Remove(e.path)
	}
	if e.sub != nil {
		bucket := c.subindex[e.sub.Key]
		delete(bucket, e.fp)
		if len(bucket) == 0 {
			delete(c.subindex, e.sub.Key)
		}
	}
}

// evictLocked enforces the resident byte budget, least recently served
// first. With the disk tier configured a victim is demoted to a spill
// file instead of dropped (falling back to a real eviction if the disk
// write fails).
func (c *Cache) evictLocked() {
	c.res.Evict(func(_ plan.Fingerprint, e *entry) {
		if !c.spillEnabled() || !c.demoteLocked(e) {
			c.dropLocked(e)
			c.evictions++
		}
	})
}

// Do resolves a query through the cache with query-granular
// single-flight: a stored current-epoch entry is served immediately; an
// in-flight identical execution is ridden (block, then share its
// result); otherwise compute runs as the leader and its result is
// published to every rider and — cost and epoch permitting — retained
// under the leader's session. compute returns the materialized
// result and its recompute-cost signal (DoNotStore declines retention).
// A non-nil sub semantically indexes the retained entry. A nil cache
// degenerates to calling compute.
func (c *Cache) Do(fp plan.Fingerprint, session string, sub *plan.SubsumptionInfo, compute func() (*exec.Materialized, time.Duration, error)) (*exec.Materialized, Outcome, error) {
	if c == nil {
		mat, _, err := compute()
		return mat, Outcome{}, err
	}
	c.mu.Lock()
	//lint:allow lockcheck spill promotion is serialized under c.mu by design: an entry's tier state must not change between probe and load (see spill.go)
	if mat, ok := c.getLocked(fp); ok {
		c.hits++
		c.mu.Unlock()
		return mat, Outcome{Hit: true}, nil
	}
	if f, ok := c.flights[fp]; ok && f.epoch == c.epoch {
		// Riding is a hit, not a miss: the work is not repeated. Only a
		// current-epoch flight qualifies — a query arriving after an
		// invalidation has observed "the data changed" and must
		// re-execute, not ride a pre-change execution (whose result the
		// store side will likewise reject).
		c.riders++
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, Outcome{Rider: true}, f.err
		}
		return f.mat, Outcome{Hit: true, Rider: true}, nil
	}
	c.misses++
	f := &flight{done: make(chan struct{}), epoch: c.epoch}
	// Overwrites any stale-epoch flight: its leader still publishes to
	// its own (pre-bump) riders and removes only its own table entry.
	c.flights[fp] = f
	startEpoch := c.epoch
	c.mu.Unlock()

	// publish runs exactly once — on the normal path below, or from the
	// deferred recovery if compute panics: the flight must leave the
	// table and its riders must wake (with an error) either way, or every
	// later identical query would block forever on a dead flight.
	published := false
	publish := func(mat *exec.Materialized, cost time.Duration, err error) bool {
		published = true
		c.mu.Lock()
		// Remove only our own flight: a stale-epoch flight may have been
		// superseded in the table by a post-invalidation one.
		if c.flights[fp] == f {
			delete(c.flights, fp)
		}
		stored := false
		if err == nil {
			// Freeze before publishing: riders and the stored entry share
			// the leader's storage, and the first mutation through any
			// handle (including the leader's own) copies first.
			mat.Freeze()
			f.mat = mat
			//lint:allow lockcheck demotion-based eviction is serialized under c.mu by design: admission and spill share one byte ledger (see spill.go)
			stored = c.admitLocked(fp, session, mat, cost, startEpoch, sub)
		}
		f.err = err
		c.mu.Unlock()
		close(f.done)
		return stored
	}
	defer func() {
		if !published {
			publish(nil, 0, errLeaderAborted)
		}
	}()

	mat, cost, err := compute()
	stored := publish(mat, cost, err)
	if err != nil {
		return nil, Outcome{}, err
	}
	return mat, Outcome{Stored: stored}, nil
}

// errLeaderAborted is what riders see when the leading execution
// panicked out of Do instead of returning.
var errLeaderAborted = errors.New("resultcache: leading execution aborted")

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Riders: c.riders,
		Stores: c.stores, RejectedStores: c.rejected,
		Evictions: c.evictions, Invalidations: c.invalidated,
		SubsumptionProbes: c.subProbes, SubsumptionHits: c.subHits,
		SubsumptionBytesSaved: c.subBytesSaved, RefilterWall: c.refilterWall,
		Demotions: c.demotions, Promotions: c.promotions,
		DiskEvictions: c.diskEvictions, WarmedFromDisk: c.warmed,
		BytesResident: c.res.Cost(), Entries: c.res.Len(),
		BytesOnDisk: c.disk.Cost(), DiskEntries: c.disk.Len(),
		Epoch: c.epoch,
	}
}

// matBytes totals a materialization's resident size in the same unit the
// ingestion cache charges (vector.Batch.Bytes).
func matBytes(mat *exec.Materialized) int64 {
	var total int64
	for _, b := range mat.Batches {
		total += b.Bytes()
	}
	return total
}
