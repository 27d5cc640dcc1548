package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/explore"
	"repro/internal/plan"
	"repro/internal/stats"
)

// Prepared is a query that finished the pipeline's front half (see
// pipeline.go): parsed, bound, optimized, normalized and fingerprinted,
// and decomposed into Q = Qf ⋈ Qs when the engine runs in ALi mode.
type Prepared struct {
	eng  *Engine
	SQL  string
	Root plan.Node
	// ctx cancels the query's budget waits; session is the admission
	// identity mounts and result-cache stores are attributed to. Both
	// default to anonymous (Prepare) and are set by PrepareAs/QueryAs.
	ctx     context.Context
	session string
	// Fingerprint is the canonical-plan hash semantically equivalent
	// spellings share; the engine's result cache keys on it.
	Fingerprint plan.Fingerprint
	// Dec is the two-stage decomposition; valid when HasStages.
	Dec       plan.Decomposition
	HasStages bool
	// actuals are the actual-data scans rule (1) will expand.
	actuals []plan.ActualScanInfo
	// inFlight marks an execution led under the result cache's
	// single-flight: the flight publishes the result, so the stages skip
	// their own probe and offer.
	inFlight bool
	// startEpoch is the result-cache epoch observed when execution began
	// (Stage1); an execution that straddles an invalidation must not be
	// retained.
	startEpoch uint64
	// sub is the plan's subsumption summary (nil when ineligible or when
	// Options.ResultCacheSubsumption is off): the semantic-cache bucket
	// key, per-column intervals, and the prebuilt re-filter predicate.
	sub *plan.SubsumptionInfo
}

// PlanString renders the optimized plan; in ALi mode the two stages are
// shown separately.
func (p *Prepared) PlanString() string {
	if !p.HasStages {
		return plan.Format(p.Root)
	}
	if p.Dec.MetadataOnly {
		return "-- metadata-only: Qf answers the query --\n" + plan.Format(p.Dec.Qf)
	}
	return "-- Qf (first stage) --\n" + plan.Format(p.Dec.Qf) +
		"-- Qs (second stage) --\n" + plan.Format(p.Dec.Qs)
}

// Breakpoint is the pause between the two execution stages: the files of
// interest are known, the informativeness estimate is available, and the
// explorer may proceed, or abort without ingesting anything.
type Breakpoint struct {
	pq       *Prepared
	qfResult *exec.Materialized
	files    []plan.MountSpec
	// Est is the informativeness estimate for the second stage.
	Est explore.Estimate
	// final is non-nil when the query was fully answered in stage one
	// (metadata-only queries, derived-metadata answers, or Ei mode).
	final *Result

	stage1Wall time.Duration
	stage1IO   time.Duration
	// span is what σp3 says about the data-span column, for cache
	// decisions, informativeness and the derived-metadata shortcut.
	span plan.Span

	// oracle is the statistics-free planner fed by the frozen Qf result
	// (nil when Options.StatsPlanning is off or the metadata result is
	// not record-granular). The counters record what Stage-1 planning
	// already saved so Stage-2 stats can report it.
	oracle          *stats.Oracle
	prunedFiles     int
	prunedRecords   int
	bytesNotMounted int64
	joinFlips       int
}

// Done reports whether the query is already answered (no second stage).
func (b *Breakpoint) Done() bool { return b.final != nil }

// Result returns the final result when Done.
func (b *Breakpoint) Result() *Result { return b.final }

// FilesOfInterest lists the files the second stage would access.
func (b *Breakpoint) FilesOfInterest() []plan.MountSpec {
	out := make([]plan.MountSpec, len(b.files))
	copy(out, b.files)
	return out
}

// Stage1 runs the result-cache probe and the first execution stage. A
// current-epoch cached result for the query's fingerprint answers it
// outright (Done reports true and no stage executes). Otherwise, for Ei
// mode Stage1 simply runs the whole plan (there is only one stage); for
// ALi it executes Qf, identifies the files of interest and computes the
// informativeness estimate — then pauses.
func (p *Prepared) Stage1() (*Breakpoint, error) {
	e := p.eng
	start := time.Now()
	ioStart := e.clock.Elapsed()
	bp := &Breakpoint{pq: p}

	p.startEpoch = e.results.Epoch()
	// Pipeline probe stage: an O(1) share of a cached result makes both
	// execution stages unnecessary.
	if res, ok := e.probeResultCache(p); ok {
		res.Stats.Stage1Wall = time.Since(start)
		res.Stats.TotalWall = res.Stats.Stage1Wall
		bp.final = res
		return bp, nil
	}

	finish := func(mat *exec.Materialized, st Stats) {
		st.Stage1Wall = time.Since(start)
		st.Stage1IO = e.clock.Elapsed() - ioStart
		st.TotalWall = st.Stage1Wall + st.Stage2Wall
		st.TotalIO = st.Stage1IO + st.Stage2IO
		bp.final = &Result{Columns: columnNames(mat.Schema), Mat: mat, Stats: st}
		e.offerToResultCache(p, bp.final)
	}

	if e.opts.Mode == ModeEi || !p.HasStages && len(p.actuals) == 0 {
		// Single-stage execution: the conventional path.
		mat, err := exec.Run(p.Root, e.newExecEnv(p, nil))
		if err != nil {
			return nil, err
		}
		finish(mat, Stats{})
		return bp, nil
	}

	if p.HasStages && p.Dec.MetadataOnly {
		mat, err := exec.Run(p.Dec.Qf, e.newExecEnv(p, nil))
		if err != nil {
			return nil, err
		}
		finish(mat, Stats{MetadataOnly: true})
		return bp, nil
	}

	// ALi with actual data involved.
	if p.HasStages {
		mat, err := exec.Run(p.Dec.Qf, e.newExecEnv(p, nil))
		if err != nil {
			return nil, err
		}
		// The Qf result is replayed by every per-file subplan of stage
		// two, possibly concurrently at any parallelism: freeze it so the
		// replays are O(1) shares and any mutation anywhere materializes
		// a private copy instead of corrupting the shared result.
		mat.Freeze()
		bp.qfResult = mat
	}
	if err := e.identifyFiles(p, bp); err != nil {
		return nil, err
	}
	// Statistics-free planning: the frozen Qf result is an exact
	// cardinality oracle. Prune files whose every record provably fails
	// the Stage-2 residual before the mount service ever sees them, and
	// stamp honest byte estimates on what survives.
	if e.statsPlanningOn() && bp.qfResult != nil {
		if o := e.buildOracle(p, bp); o != nil {
			bp.oracle = o
			kept, rep := o.PruneFiles(bp.files)
			bp.files = kept
			bp.prunedFiles = rep.PrunedFiles
			bp.prunedRecords = rep.PrunedRecords
			bp.bytesNotMounted = rep.BytesNotMounted
			for i := range bp.files {
				bp.files[i].EstBytes = o.EstimateBytes(bp.files[i].URI)
			}
		}
	}
	bp.Est = e.estimate(p, bp)
	bp.stage1Wall = time.Since(start)
	bp.stage1IO = e.clock.Elapsed() - ioStart

	// Derived-metadata shortcut: answer summary queries without stage 2.
	if e.derived != nil {
		if res, ok := e.tryDerivedAnswer(p, bp); ok {
			st := res.Stats
			st.Stage1Wall = time.Since(start)
			st.Stage1IO = e.clock.Elapsed() - ioStart
			st.TotalWall = st.Stage1Wall
			st.TotalIO = st.Stage1IO
			st.FilesOfInterest = len(bp.files)
			st.Estimate = bp.Est
			st.AnsweredFromDerived = true
			res.Stats = st
			bp.final = res
			e.offerToResultCache(p, res)
			return bp, nil
		}
	}
	return bp, nil
}

// identifyFiles computes the files of interest from the Qf result (or
// all repository files when the query never touches metadata) and marks
// which are cache-resident (f ∈ C).
func (e *Engine) identifyFiles(p *Prepared, bp *Breakpoint) error {
	if len(p.actuals) == 0 {
		return fmt.Errorf("core: stage 2 with no actual-data scan")
	}
	actual := p.actuals[0]
	bp.span = plan.ColumnSpan(actual.Pred, actual.Binding+"."+e.adapter.DataSpanColumn())

	var uris []string
	if bp.qfResult == nil {
		uris = e.allURIs // worst case: the entire repository
	} else {
		uriCol, err := plan.CollectURIColumn(p.Dec.Qs, p.Dec.Name, actual.Binding, e.adapter.URIColumn())
		if err != nil {
			return err
		}
		idx := bp.qfResult.Column(uriCol)
		if idx < 0 {
			return fmt.Errorf("core: stage-one result lacks column %s", uriCol)
		}
		seen := make(map[string]bool)
		for _, b := range bp.qfResult.Batches {
			for _, u := range b.Cols[idx].Strings() {
				if !seen[u] {
					seen[u] = true
					uris = append(uris, u)
				}
			}
		}
	}
	need := exec.SpanNeed(bp.span)
	bp.files = make([]plan.MountSpec, len(uris))
	for i, u := range uris {
		bp.files[i] = plan.MountSpec{URI: u, Cached: e.cache.Contains(u, need)}
	}
	return nil
}

// Proceed runs the second execution stage: the run-time query
// optimization phase applies rewrite rule (1), then Qs executes, mounts
// happening wherever and whenever needed.
func (b *Breakpoint) Proceed() (*Result, error) {
	if b.final != nil {
		return b.final, nil
	}
	e := b.pq.eng
	start := time.Now()
	ioStart := e.clock.Elapsed()

	root := b.pq.Root
	if b.pq.HasStages {
		root = b.pq.Dec.Qs
	}
	actual := b.pq.actuals[0]
	rewritten := plan.ApplyRule1(root, actual.Binding, e.adapter.Name(), b.files)
	rewritten = b.orderStage2Joins(rewritten)
	resolved, err := plan.Resolve(rewritten)
	if err != nil {
		return nil, err
	}
	env := e.newExecEnv(b.pq, b)

	var mat *exec.Materialized
	if e.opts.Strategy == StrategyPerFile {
		mat, err = e.runPerFile(resolved, env)
	} else {
		mat, err = exec.Run(resolved, env)
	}
	if err != nil {
		return nil, err
	}

	st := Stats{
		Stage1Wall:      b.stage1Wall,
		Stage1IO:        b.stage1IO,
		Stage2Wall:      time.Since(start),
		Stage2IO:        e.clock.Elapsed() - ioStart,
		FilesOfInterest: len(b.files),
		Mounts:          b.stage2Mounts(env),
		Estimate:        b.Est,
		Strategy:        e.opts.Strategy,
	}
	st.TotalWall = st.Stage1Wall + st.Stage2Wall
	st.TotalIO = st.Stage1IO + st.Stage2IO
	res := &Result{Columns: columnNames(mat.Schema), Mat: mat, Stats: st}
	b.pq.eng.offerToResultCache(b.pq, res)
	return res, nil
}

// newExecEnv builds the execution environment, wiring the query's
// cancellation context and session identity, the Qf result for
// result-scans and the engine's shared mount service (which carries the
// derived-metadata observation hook). p may be nil (cached serves with
// no originating prepared query).
func (e *Engine) newExecEnv(p *Prepared, bp *Breakpoint) *exec.Env {
	env := &exec.Env{
		Store:       e.store,
		Adapters:    e.reg,
		RepoDir:     e.opts.RepoDir,
		Cache:       e.cache,
		Results:     make(map[string]*exec.Materialized),
		Indexes:     e.indexes,
		BatchSize:   e.opts.BatchSize,
		Parallelism: e.opts.Parallelism,
		Mounts:      &exec.MountStats{},
		MountSvc:    e.mounts,
	}
	if p != nil {
		env.Ctx = p.ctx
		env.Session = p.session
	}
	if bp != nil && bp.qfResult != nil {
		env.Results[bp.pq.Dec.Name] = bp.qfResult
	}
	if bp != nil && bp.oracle != nil {
		env.Card = bp.oracle
	}
	return env
}

// estimate computes the breakpoint informativeness from the stage-one
// result, using the adapter's estimate hints when available.
func (e *Engine) estimate(p *Prepared, bp *Breakpoint) explore.Estimate {
	if bp.qfResult == nil {
		// No metadata stage: only file-level knowledge.
		est := explore.Estimate{Files: len(bp.files)}
		est.Empty = est.Files == 0
		return est
	}
	need := exec.SpanNeed(bp.span)
	in := explore.EstimateInput{
		Schema:   bp.qfResult.Schema,
		Rows:     bp.qfResult.Batches,
		SpanLo:   bp.span.Lo,
		SpanHi:   bp.span.Hi,
		IsCached: func(uri string) bool { return e.cache.Contains(uri, need) },
		Disk:     e.pool.Model(),
	}
	if len(p.actuals) > 0 {
		if uriCol, err := plan.CollectURIColumn(p.Dec.Qs, p.Dec.Name, p.actuals[0].Binding, e.adapter.URIColumn()); err == nil {
			in.URICol = uriCol
		}
	}
	if h, ok := e.adapter.(EstimateHints); ok {
		in.SizeCol = h.FileSizeColumn()
		in.NSamplesCol = h.RowCountColumn()
		lo, hi := h.RecordSpanColumns()
		in.SpanLoCol, in.SpanHiCol = lo, hi
	}
	return explore.Compute(in)
}

// EstimateHints is an optional adapter extension giving the
// informativeness model the metadata columns it needs. Without it the
// estimate degrades to file/record counts.
type EstimateHints interface {
	// FileSizeColumn is the file-table column holding file bytes.
	FileSizeColumn() string
	// RowCountColumn is the record-table column holding per-record row
	// counts.
	RowCountColumn() string
	// RecordSpanColumns are the record-table columns bounding the data
	// span (start, end).
	RecordSpanColumns() (lo, hi string)
}

func columnNames(schema []plan.ColInfo) []string {
	out := make([]string, len(schema))
	for i, c := range schema {
		out[i] = c.Name
	}
	return out
}
