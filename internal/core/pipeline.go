package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/resultcache"
	"repro/internal/sql"
)

// This file is the engine's staged query pipeline:
//
//	parse → bind → optimize → normalize → fingerprint
//	      → result-cache probe → execute (stage 1 [→ breakpoint] → stage 2)
//
// All three entry points share it instead of duplicating steps: Prepare
// runs the front half and stops before the probe; Stage1/Proceed (the
// interactive breakpoint flow) and Query (end-to-end, with
// query-granular single-flight) share the probe, the execution stages
// and the result-cache offer on completion. Query remembers what each
// text's front half produced for the probe (compiledText), so a repeated
// text reaches the probe without running it again.

// Prepare runs the pipeline's front half: parse, bind, optimize,
// normalize and fingerprint (plus, in ALi mode, the Q = Qf ⋈ Qs
// decomposition). This is the compile-time query optimization phase.
// The query runs anonymously; PrepareAs attaches a cancellation context
// and a session identity.
func (e *Engine) Prepare(sqlText string) (*Prepared, error) {
	return e.PrepareAs(context.Background(), "", sqlText) //lint:allow ctxcheck Prepare is the documented anonymous uncancellable entry point; callers who hold a ctx use PrepareAs
}

// PrepareAs is Prepare with an execution identity: ctx cancels the
// query's waits on the mount admission budget, and session is the
// identity its mounts are attributed to in the mount service's
// per-session statistics and its result-cache stores are recorded
// under.
func (e *Engine) PrepareAs(ctx context.Context, session, sqlText string) (*Prepared, error) {
	// parse
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	// bind
	bound, err := plan.Bind(stmt, e.cat)
	if err != nil {
		return nil, err
	}
	// optimize
	optimized, err := plan.Optimize(bound, e.cat)
	if err != nil {
		return nil, err
	}
	// normalize: semantics-preserving canonicalization (constant folding,
	// canonical conjunct order) of the plan that will execute.
	normalized, err := plan.Normalize(optimized)
	if err != nil {
		return nil, err
	}
	// fingerprint: the canonical-plan hash equivalent spellings share;
	// the result cache keys on it.
	if ctx == nil {
		ctx = context.Background() //lint:allow ctxcheck nil-ctx normalization: a nil ctx means the caller opted out of cancellation
	}
	p := &Prepared{
		eng: e, SQL: sqlText, Root: normalized,
		ctx: ctx, session: session,
		Fingerprint: plan.FingerprintOf(normalized),
	}
	// Subsumption summary: the semantic-cache bucket key, the per-column
	// interval decomposition, and the re-filter predicate. Computed once
	// at prepare time; nil when the plan is ineligible (row-collapsing
	// operators, non-interval bounds, non-passthrough columns).
	if e.results != nil && e.opts.ResultCacheSubsumption {
		p.sub = plan.SubsumptionInfoOf(normalized)
	}
	if e.opts.Mode == ModeALi {
		name := fmt.Sprintf("qf%d", e.qfSeq.Add(1))
		if dec, ok := plan.Decompose(normalized, e.cat, name); ok {
			p.Dec = dec
			p.HasStages = true
			if !dec.MetadataOnly {
				p.actuals = plan.FindActualScans(dec.Qs, e.cat)
			}
		} else {
			// No metadata reference at all: rule (1) still applies, with
			// every repository file potentially of interest (worst case).
			p.actuals = plan.FindActualScans(normalized, e.cat)
		}
	}
	return p, nil
}

// run executes a prepared query end to end through the shared stages.
func (p *Prepared) run() (*Result, error) {
	bp, err := p.Stage1()
	if err != nil {
		return nil, err
	}
	if bp.Done() {
		return bp.Result(), nil
	}
	return bp.Proceed()
}

// Query runs a query end to end: the full pipeline, with query-granular
// single-flight when the result cache is enabled — concurrent identical
// queries coalesce onto one execution and riders receive O(1)
// copy-on-write shares of the leader's result, mirroring the mount
// service's flights one layer up. The query runs anonymously and
// uncancellable; servers multiplexing sessions use QueryAs.
func (e *Engine) Query(sqlText string) (*Result, error) {
	return e.QueryAs(context.Background(), "", sqlText) //lint:allow ctxcheck Query is the documented anonymous uncancellable entry point; callers who hold a ctx use QueryAs
}

// QueryAs is Query under an execution identity: ctx unblocks the query
// promptly if it is cancelled while waiting on the mount admission
// budget (holding nothing it never acquired), and session is the
// accounting identity its mounts are charged to in the mount service's
// per-session statistics and its result-cache stores are recorded
// under.
func (e *Engine) QueryAs(ctx context.Context, session, sqlText string) (*Result, error) {
	if e.results == nil {
		p, err := e.PrepareAs(ctx, session, sqlText)
		if err != nil {
			return nil, err
		}
		return p.run()
	}
	// A text seen before probes the result cache under the fingerprint it
	// compiled to, and is compiled again only to lead an execution: a
	// session going back to a window it has visited waits for a map
	// lookup and an O(1) share, not for the compile-time optimizer.
	var p *Prepared
	ct, seen := e.compiledText(sqlText)
	if !seen {
		var err error
		if p, err = e.PrepareAs(ctx, session, sqlText); err != nil {
			return nil, err
		}
		ct = compiledText{fp: p.Fingerprint, sub: p.sub}
		e.rememberText(sqlText, ct)
	}
	start := time.Now()
	var leader *Result
	var mat *exec.Materialized
	var out resultcache.Outcome
	var err error
	for {
		mat, out, err = e.results.Do(ct.fp, session, ct.sub, func() (*exec.Materialized, time.Duration, error) {
			if p == nil {
				var err error
				if p, err = e.PrepareAs(ctx, session, sqlText); err != nil {
					return nil, 0, err
				}
			}
			// The flight publishes and stores the result; the stages must
			// not offer it a second time.
			p.inFlight = true
			// Semantic probe before executing: a wider cached entry that
			// contains this query re-filters in memory — zero mounts — and
			// the flight publishes (and cost permitting retains) the slice
			// under this query's own fingerprint.
			if res, cost, ok := e.probeSubsumption(p); ok {
				leader = res
				return res.Mat, cost, nil
			}
			res, err := p.run()
			if err != nil {
				return nil, 0, err
			}
			leader = res
			return res.Mat, recomputeCost(res), nil
		})
		if err == nil {
			break
		}
		// A rider that inherited the LEADER's cancellation while this
		// query is itself alive must not fail: the leader died of its own
		// context, not of the query. Re-resolve — ride whoever leads now,
		// or lead (and the lead's own errors, including this query's own
		// cancellation, return normally above).
		if out.Rider && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			continue
		}
		return nil, err
	}
	if leader != nil {
		return leader, nil
	}
	res, err := e.serveCached(mat, out)
	if err != nil {
		return nil, err
	}
	// The client's latency includes any wait on the ridden flight.
	res.Stats.Stage1Wall = time.Since(start)
	res.Stats.TotalWall = res.Stats.Stage1Wall
	return res, nil
}

// compiledText is what a SQL text compiled to, as far as the result cache
// needs it. Both are functions of the text and the engine's catalog,
// which does not change after Open.
type compiledText struct {
	fp  plan.Fingerprint
	sub *plan.SubsumptionInfo
}

// maxCompiledTexts bounds Engine.texts, least recently used text out
// first.
const maxCompiledTexts = 4096

func (e *Engine) compiledText(sqlText string) (compiledText, bool) {
	e.textMu.Lock()
	defer e.textMu.Unlock()
	return e.texts.Get(sqlText)
}

func (e *Engine) rememberText(sqlText string, ct compiledText) {
	e.textMu.Lock()
	defer e.textMu.Unlock()
	e.texts.Put(sqlText, ct, 1)
	e.texts.Evict(nil)
}

// probeResultCache is the pipeline's probe stage: a current-epoch entry
// for the prepared fingerprint short-circuits both execution stages. On
// an exact miss the semantic index is probed next — a wider entry whose
// predicate contains this query's answers it by an in-memory re-filter.
func (e *Engine) probeResultCache(p *Prepared) (*Result, bool) {
	if e.results == nil || p.inFlight {
		return nil, false
	}
	if mat, ok := e.results.Get(p.Fingerprint); ok {
		res, err := e.serveCached(mat, resultcache.Outcome{Hit: true})
		if err != nil {
			return nil, false
		}
		return res, true
	}
	res, cost, ok := e.probeSubsumption(p)
	if !ok {
		return nil, false
	}
	// Retain the slice under the narrow query's own fingerprint so its
	// next repetition is an exact O(1) hit — cost-gated, and declined
	// outright when the re-filter trimmed nothing (the slice would only
	// duplicate its source entry).
	if cost != resultcache.DoNotStore {
		e.results.PutAt(p.Fingerprint, p.session, res.Mat, cost, p.startEpoch, p.sub)
	}
	return res, true
}

// probeSubsumption probes the result cache's semantic index and, on a
// hit, re-filters the wider frozen entry through the executor's
// share-based result-scan path: zero file mounts, O(1) copies for
// batches the re-filter passes whole. It returns the served result and
// the cost signal for retaining the slice as its own entry —
// resultcache.DoNotStore when the re-filter removed nothing.
func (e *Engine) probeSubsumption(p *Prepared) (*Result, time.Duration, bool) {
	if e.results == nil || p.sub == nil {
		return nil, 0, false
	}
	hit, ok := e.results.GetSubsuming(p.Fingerprint, p.sub)
	if !ok {
		return nil, 0, false
	}
	start := time.Now()
	env := e.newExecEnv(nil, nil)
	served, err := exec.ServeSubsumedResult(hit.Mat, p.sub.Refilter, hit.Bytes, env)
	if err != nil {
		return nil, 0, false
	}
	wall := time.Since(start)
	e.results.NoteRefilter(wall, hit.Bytes)
	st := Stats{
		ServedFromResultCache: true,
		ServedBySubsumption:   true,
		SubsumedFrom:          hit.Fp,
		RefilterWall:          wall,
		Mounts:                env.MountsSnapshot(),
	}
	st.Stage1Wall = wall
	st.TotalWall = wall
	res := &Result{Columns: columnNames(served.Schema), Mat: served, Stats: st}
	// The slice inherits the wider entry's recompute-cost signal — a
	// narrow re-execution would mount the same files — unless it is the
	// whole entry, which is already stored under the wider fingerprint.
	cost := hit.Cost
	var servedBytes int64
	for _, b := range served.Batches {
		servedBytes += b.Bytes()
	}
	if servedBytes >= hit.Bytes {
		cost = resultcache.DoNotStore
	}
	return res, cost, true
}

// serveCached turns a frozen cache entry (or flight result) into a
// client result through the executor's share-based result-scan path,
// attributing the serve to the query's result-cache statistics. Callers
// on a longer path (a flight ridden inside Query) overwrite the wall
// times with their full elapsed time.
func (e *Engine) serveCached(mat *exec.Materialized, out resultcache.Outcome) (*Result, error) {
	start := time.Now()
	env := e.newExecEnv(nil, nil)
	served, err := exec.ServeCachedResult(mat, env)
	if err != nil {
		return nil, err
	}
	st := Stats{
		ServedFromResultCache: true,
		CoalescedRider:        out.Rider,
		Mounts:                env.MountsSnapshot(),
	}
	st.Stage1Wall = time.Since(start)
	st.TotalWall = st.Stage1Wall
	return &Result{Columns: columnNames(served.Schema), Mat: served, Stats: st}, nil
}

// offerToResultCache retains a completed result under the query's
// fingerprint. Partial (stopped-early) results and results already
// served from the cache are never offered; a query running under a
// single-flight leader leaves storing to the flight; and an execution
// that straddled an invalidation (the epoch moved past the one Stage1
// observed) is rejected by PutAt — it may reflect pre-change data.
func (e *Engine) offerToResultCache(p *Prepared, res *Result) {
	if e.results == nil || p.inFlight || p.Fingerprint.IsZero() ||
		res.Stats.StoppedEarly || res.Stats.ServedFromResultCache {
		return
	}
	e.results.PutAt(p.Fingerprint, p.session, res.Mat, recomputeCost(res), p.startEpoch, p.sub)
}

// recomputeCost is the admission signal: what it would cost to compute
// this result again. The breakpoint's cardinality-derived estimate
// (files, records and bytes of interest from metadata) and the measured
// modeled time bound it from two sides; the larger wins.
func recomputeCost(res *Result) time.Duration {
	cost := res.Stats.Modeled()
	if est := res.Stats.Estimate.EstCost; est > cost {
		cost = est
	}
	return cost
}
