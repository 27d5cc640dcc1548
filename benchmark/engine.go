package main

// Every call into internal/core is in this file, through the narrowest
// surface the engine has today: Open/Options, QueryAs, the PrepareAs →
// Stage1 → Proceed split, Result.Stats and the per-package Stats()
// snapshots. A later collapse of that API is a change to this file only.

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/admission"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/mountsvc"
	"repro/internal/resultcache"
	"repro/internal/storage"
	"repro/internal/vector"
)

// options are the engine settings a workload chooses; everything else
// stays at core.Options' zero value. The JSON form is what -out records.
type options struct {
	// Eager selects ModeEi (load and index everything at Open).
	Eager       bool `json:"eager,omitempty"`
	Parallelism int  `json:"parallelism,omitempty"`
	PoolPages   int  `json:"pool_pages,omitempty"`
	// IngestCacheBytes > 0 turns on a file-granular LRU ingestion cache.
	IngestCacheBytes     int64 `json:"ingest_cache_bytes,omitempty"`
	ResultCacheBytes     int64 `json:"result_cache_bytes,omitempty"`
	ResultCacheDiskBytes int64 `json:"result_cache_disk_bytes,omitempty"`
	Subsumption          bool  `json:"result_cache_subsumption,omitempty"`
	// Spill gives the engine a spill directory: the result cache's disk
	// tier, and flight spilling when SpillThresholdBytes > 0.
	Spill               bool  `json:"spill_dir,omitempty"`
	SpillThresholdBytes int64 `json:"spill_threshold_bytes,omitempty"`
	MountBudgetBytes    int64 `json:"mount_budget_bytes,omitempty"`
	// StatsPlanningOff is set on the reference engine only.
	StatsPlanningOff bool `json:"stats_planning_off,omitempty"`
}

// referenceOptions is the engine every answer is checked against: ALi,
// sequential, no planner, no cache, no spill.
var referenceOptions = options{Parallelism: 1, StatsPlanningOff: true}

type engine struct {
	e   *core.Engine
	dir string
}

// openEngine opens an engine over repoDir with a fresh database (and
// spill) directory under parent; close removes it.
func openEngine(repoDir, parent string, o options) (*engine, error) {
	dir, err := os.MkdirTemp(parent, "engine-")
	if err != nil {
		return nil, err
	}
	opts := core.Options{
		RepoDir:                repoDir,
		DBDir:                  filepath.Join(dir, "db"),
		Parallelism:            o.Parallelism,
		PoolPages:              o.PoolPages,
		ResultCacheBytes:       o.ResultCacheBytes,
		ResultCacheDiskBytes:   o.ResultCacheDiskBytes,
		ResultCacheSubsumption: o.Subsumption,
		SpillThresholdBytes:    o.SpillThresholdBytes,
		MountBudgetBytes:       o.MountBudgetBytes,
	}
	if o.Eager {
		opts.Mode = core.ModeEi
	}
	if o.IngestCacheBytes > 0 {
		opts.Cache = cache.Config{Policy: cache.LRU, Granularity: cache.FileGranular, MaxBytes: o.IngestCacheBytes}
	}
	if o.Spill {
		opts.SpillDir = filepath.Join(dir, "spill")
	}
	if o.StatsPlanningOff {
		opts.StatsPlanning = core.StatsPlanningOff
	}
	e, err := core.Open(opts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &engine{e: e, dir: dir}, nil
}

func (e *engine) close() error {
	err := e.e.Close()
	if rmErr := os.RemoveAll(e.dir); err == nil {
		err = rmErr
	}
	return err
}

// storedBytes is what an eager load left on disk: column files plus key
// indexes (a few metadata pages under ALi).
func (e *engine) storedBytes() int64 { return e.e.Store().SizeOnDisk() + e.e.IndexBytes() }

// answer is what the benchmark keeps of one result.
type answer struct {
	// Sum is a checksum of the column names and every value in row order,
	// independent of how rows are split into batches.
	Sum uint64
	// Files of interest after pruning, files mounted by this query, and
	// the planner's counters for it.
	OfInterest, Mounted, PrunedFiles, JoinFlips int
	// mat is the materialized result, for probes that replay it.
	mat *exec.Materialized
}

func newAnswer(res *core.Result) answer {
	m := res.Stats.Mounts
	return answer{
		Sum:         checksum(res.Columns, res.Mat),
		OfInterest:  res.Stats.FilesOfInterest,
		Mounted:     m.FilesMounted,
		PrunedFiles: m.PrunedFiles,
		JoinFlips:   m.JoinOrderFlips + m.JoinBuildFlips,
		mat:         res.Mat,
	}
}

// resultBytes is the resident size a result cache would charge for it.
func (a answer) resultBytes() int64 {
	var n int64
	for _, b := range a.mat.Batches {
		n += b.Bytes()
	}
	return n
}

// query runs one request end to end, as an explorer's client would, and
// reports how long the engine took; checking the answer is not timed.
func (e *engine) query(ctx context.Context, session, sql string) (answer, time.Duration, error) {
	start := time.Now()
	res, err := e.e.QueryAs(ctx, session, sql)
	took := time.Since(start)
	if err != nil {
		return answer{}, took, err
	}
	return newAnswer(res), took, nil
}

// staged is a query taken through the engine's three public steps one at
// a time, so that each can carry a span.
type staged struct {
	p   *core.Prepared
	bp  *core.Breakpoint
	res *core.Result
}

func (e *engine) prepare(ctx context.Context, session, sql string) (*staged, error) {
	p, err := e.e.PrepareAs(ctx, session, sql)
	if err != nil {
		return nil, err
	}
	return &staged{p: p}, nil
}

func (s *staged) stage1() (err error) {
	s.bp, err = s.p.Stage1()
	return err
}

// filesOfInterest lists the files Stage 2 would mount; empty when Stage 1
// already answered (cache hit, metadata-only, or the eager engine).
func (s *staged) filesOfInterest() []string {
	specs := s.bp.FilesOfInterest()
	out := make([]string, len(specs))
	for i, f := range specs {
		out[i] = f.URI
	}
	return out
}

func (s *staged) proceed() (err error) {
	s.res, err = s.bp.Proceed()
	return err
}

// answer checks and summarizes the result proceed produced.
func (s *staged) answer() answer { return newAnswer(s.res) }

// counters is one snapshot of every public Stats() the engine exposes;
// per-layer count metrics are differences of two snapshots.
type counters struct {
	ModeledIO time.Duration
	Pool      storage.PoolStats
	Ingest    cache.Stats
	Results   resultcache.Stats
	Mounts    mountsvc.Stats
	Gate      admission.Stats
}

func (e *engine) counters() counters {
	return counters{
		ModeledIO: e.e.Clock().Elapsed(),
		Pool:      e.e.Pool().Stats(),
		Ingest:    e.e.Cache().Stats(),
		Results:   e.e.ResultCache().Stats(),
		Mounts:    e.e.MountService().Stats(),
		Gate:      e.e.MountService().Gate().Stats(),
	}
}

// checksum folds the column names and every value, column by column and
// in row order, into 64 bits. It reads through the vectors' typed views,
// so checking a few thousand rows costs microseconds, not a query.
func checksum(columns []string, mat *exec.Materialized) uint64 {
	const prime = 1099511628211
	mix := func(h, v uint64) uint64 { return (h ^ v) * prime }
	mixString := func(h uint64, s string) uint64 {
		for i := 0; i < len(s); i++ {
			h = mix(h, uint64(s[i]))
		}
		return mix(h, uint64(len(s)))
	}
	sum := uint64(14695981039346656037)
	for c, name := range columns {
		h := mixString(sum, name)
		for _, b := range mat.Batches {
			col := b.Cols[c]
			switch col.Kind() {
			case vector.KindInt64, vector.KindTime:
				for _, v := range col.Int64s() {
					h = mix(h, uint64(v))
				}
			case vector.KindFloat64:
				for _, v := range col.Float64s() {
					h = mix(h, math.Float64bits(v))
				}
			case vector.KindString:
				for _, v := range col.Strings() {
					h = mixString(h, v)
				}
			case vector.KindBool:
				for _, v := range col.Bools() {
					bit := uint64(0)
					if v {
						bit = 1
					}
					h = mix(h, bit)
				}
			}
		}
		sum = mix(sum, h)
	}
	return sum
}
