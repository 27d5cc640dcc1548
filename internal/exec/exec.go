// Package exec implements the vectorized physical operators that execute
// logical plans: table scans, filters, projections, hash joins,
// index-nested-loop joins (the Ei baseline's join path), aggregation,
// sorting, unions — and the paper's three new access paths: result-scan,
// cache-scan and mount.
package exec

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/index"
	"repro/internal/mountsvc"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/vector"
)

// Operator is a pull-based, vectorized physical operator. Next returns
// nil at end of stream. Operators are single-use.
//
// Ownership contract: a batch returned by Next carries exactly one
// handle, and the caller becomes its owner — it may mutate the batch
// through the vector mutation API (Set, Append*, Permute, Mutable*),
// which materializes a private copy whenever the underlying storage is
// still shared with a cache entry, a flight replay buffer or a replayed
// result. An operator that keeps rows beyond the next call (retention
// buffers, materializations) takes its own Share instead of retaining
// the handle it emitted. No operator in this package mutates its input
// in place except sort, whose Permute goes through the copy-on-write
// entry points.
type Operator interface {
	Schema() []plan.ColInfo
	Next() (*vector.Batch, error)
	Close() error
}

// Materialized is a fully evaluated result: the unit that result-scan
// reads and that the engine returns to clients.
type Materialized struct {
	Schema  []plan.ColInfo
	Batches []*vector.Batch
}

// Rows counts the rows across all batches.
func (m *Materialized) Rows() int {
	n := 0
	for _, b := range m.Batches {
		n += b.Len()
	}
	return n
}

// Freeze permanently marks every batch's storage as shared, so any
// later mutation through any handle copies first: the engine freezes
// results it is about to replay across subplans or hand to clients.
func (m *Materialized) Freeze() {
	for _, b := range m.Batches {
		b.Freeze()
	}
}

// Flatten concatenates all batches into one (vector.Concat). With a
// single batch it returns that batch's handle itself (callers that need
// a second owner take a Share).
func (m *Materialized) Flatten() *vector.Batch {
	if len(m.Batches) > 0 {
		return vector.Concat(m.Batches)
	}
	cols := make([]*vector.Vector, len(m.Schema))
	for i, ci := range m.Schema {
		cols[i] = vector.New(ci.Kind, 0)
	}
	return vector.NewBatch(cols...)
}

// Column returns the position of a (qualified) column name, or -1.
func (m *Materialized) Column(name string) int {
	return plan.FindColumn(m.Schema, name)
}

// IndexInfo registers a disk-resident index over a stored table, used by
// the Ei baseline's index-nested-loop joins. KeyColumns are bare column
// names of the indexed table, in index key order (at most two).
type IndexInfo struct {
	Index      *index.Index
	TableName  string
	KeyColumns []string
}

// MountStats counts ALi activity during one execution. Mount work is
// attributed to the query that led the extraction: a query served by
// another query's in-progress flight records a SingleFlightHit, not a
// FilesMounted.
type MountStats struct {
	FilesMounted   int
	BytesRead      int64
	RecordsPruned  int
	RecordsMounted int
	CacheHits      int
	// SingleFlightHits counts mounts coalesced onto another query's
	// in-progress extraction by the mount service.
	SingleFlightHits int
	// CacheFallbacks counts cache-scans whose entry was evicted between
	// planning and execution, forcing a fresh mount — without this the
	// re-mount would silently inflate apparent cache efficacy.
	CacheFallbacks int
	// ResultCacheHits counts whole-query results served from the engine's
	// result cache (a fingerprint hit, or riding another client's
	// in-flight execution); ResultCacheBytes totals the bytes of those
	// served results. Serves are O(1) copy-on-write shares — the bytes are
	// shared with the cache entry, not copied.
	ResultCacheHits  int
	ResultCacheBytes int64
	// SubsumptionHits counts results served semantically: a wider cached
	// entry re-filtered in memory to answer a narrower query (a subset of
	// ResultCacheHits). SubsumptionBytesSaved totals the resident bytes of
	// the wider entries served that way — the re-execution (and its file
	// mounts) the semantic probe avoided.
	SubsumptionHits       int
	SubsumptionBytesSaved int64
	// Statistics-free planner counters. PrunedFiles/PrunedRecords count
	// mounts the Qf-fed oracle proved pointless and dropped before the
	// mount service saw them (BytesNotMounted totals their on-disk
	// bytes); JoinBuildFlips counts hash joins that built on the left
	// because the oracle proved it smaller; AdmissionBytesSaved totals
	// budget bytes the honest (summary-derived) mount estimates left
	// free for other flights.
	PrunedFiles     int
	PrunedRecords   int
	BytesNotMounted int64
	// JoinOrderFlips is always 0: nothing sets it. It stays only because
	// benchmark/engine.go still reads it; remove it together with that
	// read.
	JoinOrderFlips      int
	JoinBuildFlips      int
	AdmissionBytesSaved int64
}

// CardinalityOracle answers exact row counts for plan subtrees; in
// two-stage execution the frozen Qf result provides them for free
// (internal/stats.Oracle implements this).
type CardinalityOracle interface {
	NodeRows(plan.Node) (int64, bool)
}

// Env is everything operators need to run: storage, adapters, the
// repository location, the ingestion cache, materialized results for
// result-scans, registered indexes, and the I/O cost model for charging
// mounts.
type Env struct {
	Store    *storage.Store
	Adapters *catalog.AdapterRegistry
	RepoDir  string
	Cache    *cache.Manager
	Results  map[string]*Materialized
	Indexes  []IndexInfo
	// Ctx, when set, is the query's cancellation context: mounts blocked
	// on the admission budget unblock when it is done.
	Ctx context.Context
	// Session is the query's session identity, attributed to every mount
	// request for per-session admission statistics.
	Session string
	// BatchSize caps rows per batch (defaults to vector.DefaultBatchSize).
	BatchSize int
	// Parallelism is the mount-scheduler worker count: how many union
	// inputs (mounts, cache-scans) extract and transform concurrently.
	// Values <= 1 keep execution single-threaded.
	Parallelism int
	// Mounts accumulates ALi statistics (optional). Concurrent operators
	// and mount-service flights update it under statsMu via
	// addMountStats; read it through MountsSnapshot.
	Mounts *MountStats
	// OnMount, when set, observes every mounted pre-filter batch
	// (record-aligned, possibly several per file) — the hook used to
	// derive metadata "as a side-effect of ALi, without the explorer
	// noticing". It must be safe for concurrent use. When MountSvc is
	// set the engine wires the hook into the service instead and this
	// field is ignored.
	OnMount func(uri string, full *vector.Batch)
	// MountSvc is the engine-owned mount service every query of the
	// engine shares: single-flight extraction, streaming fan-out and the
	// cross-query admission budget. When nil (operator-level tests and
	// standalone envs) a private service is built on first use from the
	// env's own fields.
	MountSvc *mountsvc.Service
	// MountBudgetBytes configures the lazily built private service's
	// admission budget; ignored when MountSvc is set.
	MountBudgetBytes int64
	// Card, when set, is the statistics-free cardinality oracle built
	// from the frozen Qf result: hash joins consult it to build on the
	// provably smaller side. It must be read-only during execution.
	Card CardinalityOracle

	statsMu sync.Mutex
	svcOnce sync.Once
	lazySvc *mountsvc.Service
}

// service returns the mount service operators stream files through.
func (e *Env) service() *mountsvc.Service {
	if e.MountSvc != nil {
		return e.MountSvc
	}
	e.svcOnce.Do(func() {
		var pool *storage.BufferPool
		if e.Store != nil {
			pool = e.Store.Pool()
		}
		e.lazySvc = mountsvc.New(mountsvc.Config{
			RepoDir:     e.RepoDir,
			Pool:        pool,
			Cache:       e.Cache,
			OnMount:     e.OnMount,
			BudgetBytes: e.MountBudgetBytes,
		})
	})
	return e.lazySvc
}

// MountsSnapshot returns a copy of the accumulated mount statistics,
// taken under the stats lock: mount-service flights may attribute stats
// from their own goroutines.
func (e *Env) MountsSnapshot() MountStats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	if e.Mounts == nil {
		return MountStats{}
	}
	return *e.Mounts
}

func (e *Env) batchSize() int {
	if e.BatchSize > 0 {
		return e.BatchSize
	}
	return vector.DefaultBatchSize
}

// addMountStats applies a stats update under the environment's stats
// lock; mount and cache-scan operators may run on scheduler workers.
func (e *Env) addMountStats(fn func(*MountStats)) {
	if e.Mounts == nil {
		return
	}
	e.statsMu.Lock()
	fn(e.Mounts)
	e.statsMu.Unlock()
}

// lookupIndex finds a registered index on tableName whose key columns
// match keyCols exactly.
func (e *Env) lookupIndex(tableName string, keyCols []string) *IndexInfo {
	for i := range e.Indexes {
		ix := &e.Indexes[i]
		if ix.TableName != tableName || len(ix.KeyColumns) != len(keyCols) {
			continue
		}
		match := true
		for j := range keyCols {
			if ix.KeyColumns[j] != keyCols[j] {
				match = false
			}
		}
		if match {
			return ix
		}
	}
	return nil
}

// Build translates a resolved logical plan into an operator tree.
func Build(n plan.Node, env *Env) (Operator, error) {
	switch t := n.(type) {
	case *plan.Scan:
		return newTableScan(t, env)
	case *plan.Select:
		child, err := Build(t.Child, env)
		if err != nil {
			return nil, err
		}
		return &filterOp{child: child, pred: t.Pred}, nil
	case *plan.Project:
		child, err := Build(t.Child, env)
		if err != nil {
			return nil, err
		}
		return &projectOp{child: child, node: t}, nil
	case *plan.Join:
		return newJoin(t, env)
	case *plan.Aggregate:
		child, err := Build(t.Child, env)
		if err != nil {
			return nil, err
		}
		return newAggregate(t, child)
	case *plan.Sort:
		child, err := Build(t.Child, env)
		if err != nil {
			return nil, err
		}
		return &sortOp{child: child, keys: t.Keys, env: env}, nil
	case *plan.Limit:
		child, err := Build(t.Child, env)
		if err != nil {
			return nil, err
		}
		return &limitOp{child: child, n: t.N}, nil
	case *plan.UnionAll:
		inputs := make([]Operator, len(t.Inputs))
		for i, in := range t.Inputs {
			op, err := Build(in, env)
			if err != nil {
				return nil, err
			}
			inputs[i] = op
		}
		if env.Parallelism > 1 && len(inputs) > 1 {
			return newParallelUnion(t.Schema(), inputs, env.Parallelism), nil
		}
		return &unionOp{schema: t.Schema(), inputs: inputs}, nil
	case *plan.ResultScan:
		mat, ok := env.Results[t.Name]
		if !ok {
			return nil, fmt.Errorf("exec: result-scan %s: no materialized result", t.Name)
		}
		return newResultScan(t, mat)
	case *plan.Mount:
		return newMount(t, env)
	case *plan.CacheScan:
		return newCacheScan(t, env)
	default:
		return nil, fmt.Errorf("exec: no operator for %T", n)
	}
}

// ServeCachedResult replays a frozen, cached materialized result through
// the result-scan access path: the served batches are O(1) copy-on-write
// shares of the entry's storage, and the serve is attributed to the
// query's ResultCacheHits/ResultCacheBytes statistics. The caller owns
// the returned materialization; mutating it through the vector API
// materializes private copies without touching the cache entry.
func ServeCachedResult(mat *Materialized, env *Env) (*Materialized, error) {
	const name = "__resultcache"
	node := &plan.ResultScan{Name: name, Cols: mat.Schema}
	if env.Results == nil {
		env.Results = make(map[string]*Materialized)
	}
	env.Results[name] = mat
	out, err := Run(node, env)
	delete(env.Results, name)
	if err != nil {
		return nil, err
	}
	var bytes int64
	for _, b := range out.Batches {
		bytes += b.Bytes()
	}
	env.addMountStats(func(ms *MountStats) {
		ms.ResultCacheHits++
		ms.ResultCacheBytes += bytes
	})
	return out, nil
}

// ServeSubsumedResult answers a narrower query from a wider frozen cache
// entry: the entry's batches replay through the result-scan path as O(1)
// copy-on-write shares, re-filtered by the narrow query's re-filter
// predicate (nil re-filter serves the entry as-is). Batches the filter
// passes whole stay shares — only partially-selected batches gather into
// private storage, so a zoom step that trims little copies little. The
// serve counts as a ResultCacheHit and a SubsumptionHit; entryBytes is
// the wider entry's resident size, recorded as the bytes whose
// re-execution the semantic probe avoided.
func ServeSubsumedResult(mat *Materialized, refilter expr.Expr, entryBytes int64, env *Env) (*Materialized, error) {
	var op Operator = &resultScanOp{schema: mat.Schema, mat: mat}
	if refilter != nil {
		op = &filterOp{child: op, pred: refilter}
	}
	defer op.Close()
	out := &Materialized{Schema: op.Schema()}
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if b.Len() > 0 {
			out.Batches = append(out.Batches, b)
		}
	}
	var served int64
	for _, b := range out.Batches {
		served += b.Bytes()
	}
	env.addMountStats(func(ms *MountStats) {
		ms.ResultCacheHits++
		ms.ResultCacheBytes += served
		ms.SubsumptionHits++
		ms.SubsumptionBytesSaved += entryBytes
	})
	return out, nil
}

// Run builds and drains a plan into a materialized result.
func Run(n plan.Node, env *Env) (*Materialized, error) {
	op, err := Build(n, env)
	if err != nil {
		return nil, err
	}
	defer op.Close()
	out := &Materialized{Schema: op.Schema()}
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		if b.Len() > 0 {
			out.Batches = append(out.Batches, b)
		}
	}
}
