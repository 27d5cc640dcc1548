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
	proj, agg, union := matchGlobalAggOverUnion(resolved)
	env := e.newExecEnv(b.pq, b)

	elapsed := func() time.Duration {
		return time.Since(start) + e.clock.Elapsed() - ioStart
	}

	if agg == nil || union == nil {
		// Not a global aggregate: single round, one final callback.
		mat, err := exec.Run(resolved, env)
		if err != nil {
			return nil, err
		}
		res := b.assembleResult(mat, env, start, ioStart, false)
		if observe != nil {
			observe(Partial{
				FilesProcessed: len(b.files), FilesTotal: len(b.files),
				Columns: res.Columns, Elapsed: elapsed(),
			})
		}
		return res, nil
	}

	states := make([]exec.AggState, len(agg.Aggs))
	for i, spec := range agg.Aggs {
		states[i] = exec.NewAggState(spec)
	}
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

// accumulate feeds a materialized child result into the aggregate states.
func accumulate(agg *plan.Aggregate, states []exec.AggState, mat *exec.Materialized) error {
	for _, batch := range mat.Batches {
		n := batch.Len()
		for i, spec := range agg.Aggs {
			if spec.Arg == nil {
				for r := 0; r < n; r++ {
					states[i].AddCount()
				}
				continue
			}
			v, err := spec.Arg.Eval(batch)
			if err != nil {
				return err
			}
			for r := 0; r < n; r++ {
				states[i].Add(v.Get(r))
			}
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
		v := st.Result()
		want := aggSchema[i].Kind
		switch {
		case v.Kind == want:
		case want == vector.KindFloat64:
			v = vector.Float64(v.AsFloat())
		case want == vector.KindInt64:
			v = vector.Int64(v.AsInt())
		case want == vector.KindTime:
			v = vector.Time(v.AsInt())
		}
		cols[i].AppendValue(v)
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
		Strategy:        e.opts.Strategy,
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
