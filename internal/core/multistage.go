package core

import (
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/vector"
)

// This file implements the paper's §5 extension: "Ideally, we can even
// go for a 'multi-stage query execution' paradigm where the system ...
// tries to ingest in more than one place during execution.
// Consequently, we can allow more interactivity, which goes towards the
// user having full control over his query's destiny, even after the
// query leaves him and comes to the database."
//
// ProceedIncremental splits the second stage itself into ingestion
// rounds: the files of interest are mounted in batches, and after every
// batch the explorer sees the running partial answer and may stop —
// keeping what has been computed so far. It applies to global-aggregate
// queries (the shape of the paper's exploration aggregates); other
// plans execute in one piece with a single progress callback.

// Partial is the progressive answer surfaced after each ingestion round.
type Partial struct {
	// FilesProcessed / FilesTotal track ingestion progress.
	FilesProcessed int
	FilesTotal     int
	// Values are the current aggregate results, in output-column order,
	// computed over everything mounted so far.
	Values []vector.Value
	// Columns names the values.
	Columns []string
	// Elapsed is wall+modeled time since Proceed began.
	Elapsed time.Duration
}

// ErrStopped is reported via Result.Stats when the explorer stops a
// multi-stage execution early; the partial answer is still returned.
// (Stopping is not an error — the paper's whole point is that a partial,
// early answer can be worth more than a complete, late one.)

// ProceedIncremental runs the second stage in ingestion rounds of
// batchFiles files, invoking observe after each round. If observe
// returns false the execution stops and the partial aggregate over the
// files ingested so far is returned; Stats.StoppedEarly marks the
// result. A batchFiles <= 0 defaults to 1.
func (b *Breakpoint) ProceedIncremental(batchFiles int, observe func(Partial) bool) (*Result, error) {
	if b.final != nil {
		return b.final, nil
	}
	if batchFiles <= 0 {
		batchFiles = 1
	}
	e := b.pq.eng
	start := time.Now()
	ioStart := e.clock.Elapsed()

	resolved, err := b.stage2Plan()
	if err != nil {
		return nil, err
	}
	elapsed := func() time.Duration {
		return time.Since(start) + e.clock.Elapsed() - ioStart
	}

	proj, agg, union := matchGlobalAggOverUnion(resolved)
	if agg == nil || union == nil {
		// Not a global aggregate: single round, one final callback.
		res, err := b.runWhole(resolved, start, ioStart)
		if err != nil {
			return nil, err
		}
		if observe != nil {
			observe(Partial{
				FilesProcessed: len(b.files), FilesTotal: len(b.files),
				Columns: res.Columns, Elapsed: elapsed(),
			})
		}
		return res, nil
	}

	env := e.newExecEnv(b.pq, b)
	states := exec.NewAggStates(agg.Aggs)
	outSchema := resolved.Schema()
	stopped := false

	snapshot := func(processed int) Partial {
		row := finalizeStates(agg, proj, states)
		p := Partial{
			FilesProcessed: processed,
			FilesTotal:     len(union.Inputs),
			Columns:        columnNames(outSchema),
			Elapsed:        elapsed(),
		}
		for i := 0; i < row.NumCols(); i++ {
			p.Values = append(p.Values, row.Cols[i].Get(0))
		}
		return p
	}

	for lo := 0; lo < len(union.Inputs); lo += batchFiles {
		hi := lo + batchFiles
		if hi > len(union.Inputs) {
			hi = len(union.Inputs)
		}
		chunk := &plan.UnionAll{Inputs: union.Inputs[lo:hi], Cols: union.Schema()}
		childPlan := plan.ReplaceNode(agg.Child, union, chunk)
		mat, err := exec.Run(childPlan, env)
		if err != nil {
			return nil, err
		}
		if err := accumulate(agg, states, mat); err != nil {
			return nil, err
		}
		if observe != nil && !observe(snapshot(hi)) {
			stopped = true
			break
		}
	}

	row := finalizeStates(agg, proj, states)
	mat := &exec.Materialized{Schema: outSchema, Batches: []*vector.Batch{row}}
	return b.assembleResult(mat, env, start, ioStart, stopped), nil
}

// matchGlobalAggOverUnion recognizes Project?(Aggregate(subtree
// containing one UnionAll)) with no GROUP BY.
func matchGlobalAggOverUnion(root plan.Node) (*plan.Project, *plan.Aggregate, *plan.UnionAll) {
	var proj *plan.Project
	n := root
	if p, ok := n.(*plan.Project); ok {
		proj = p
		n = p.Child
	}
	agg, ok := n.(*plan.Aggregate)
	if !ok || len(agg.GroupBy) > 0 {
		return nil, nil, nil
	}
	var union *plan.UnionAll
	count := 0
	plan.Walk(agg.Child, func(x plan.Node) {
		if u, ok := x.(*plan.UnionAll); ok {
			union = u
			count++
		}
	})
	if count != 1 {
		return nil, nil, nil
	}
	return proj, agg, union
}

// accumulate feeds a materialized child result into the aggregate states.
func accumulate(agg *plan.Aggregate, states []exec.AggState, mat *exec.Materialized) error {
	for _, batch := range mat.Batches {
		if err := exec.AddBatch(agg.Aggs, states, batch); err != nil {
			return err
		}
	}
	return nil
}

// finalizeStates renders the current aggregate states through the
// optional projection into a single output row.
func finalizeStates(agg *plan.Aggregate, proj *plan.Project, states []exec.AggState) *vector.Batch {
	aggSchema := agg.Schema()
	cols := make([]*vector.Vector, len(aggSchema))
	for i, ci := range aggSchema {
		cols[i] = vector.New(ci.Kind, 1)
	}
	for i, st := range states {
		cols[i].AppendValue(exec.CoerceValue(st.Result(), aggSchema[i].Kind))
	}
	row := vector.NewBatch(cols...)
	if proj == nil {
		return row
	}
	outCols := make([]*vector.Vector, len(proj.Exprs))
	for i, ex := range proj.Exprs {
		v, err := ex.Eval(row)
		if err != nil {
			// Projections over aggregate outputs are simple column
			// references resolved at optimization time; failure here is an
			// engine invariant violation.
			panic(fmt.Sprintf("core: finalize projection: %v", err))
		}
		outCols[i] = v
	}
	return vector.NewBatch(outCols...)
}

// assembleResult builds the Result with stage-two statistics.
func (b *Breakpoint) assembleResult(mat *exec.Materialized, env *exec.Env, start time.Time, ioStart time.Duration, stopped bool) *Result {
	e := b.pq.eng
	st := Stats{
		Stage1Wall:      b.stage1Wall,
		Stage1IO:        b.stage1IO,
		Stage2Wall:      time.Since(start),
		Stage2IO:        e.clock.Elapsed() - ioStart,
		FilesOfInterest: len(b.files),
		Mounts:          b.stage2Mounts(env),
		Estimate:        b.Est,
		StoppedEarly:    stopped,
	}
	st.TotalWall = st.Stage1Wall + st.Stage2Wall
	st.TotalIO = st.Stage1IO + st.Stage2IO
	res := &Result{Columns: columnNames(mat.Schema), Mat: mat, Stats: st}
	// A completed multi-stage run is as cacheable as a one-shot one; a
	// stopped-early partial never is (offerToResultCache checks).
	e.offerToResultCache(b.pq, res)
	return res
}
