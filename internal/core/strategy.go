package core

import (
	"repro/internal/exec"
	"repro/internal/par"
	"repro/internal/plan"
	"repro/internal/vector"
)

// runPerFile implements the paper's merge strategy (b): "run higher
// operators on sub-tables and then merge the results". For a global
// aggregate it executes the aggregate's input once per file of interest
// and merges the per-file partial aggregate states; plans that are not
// global aggregates fall back to bulk execution (strategy (a)).
func (e *Engine) runPerFile(resolved plan.Node, env *exec.Env) (*exec.Materialized, error) {
	proj, agg, union := matchGlobalAggOverUnion(resolved)
	if agg == nil || union == nil {
		return exec.Run(resolved, env)
	}

	states := make([]exec.AggState, len(agg.Aggs))
	for i, spec := range agg.Aggs {
		states[i] = exec.NewAggState(spec)
	}

	// Per-file subplans run on the engine's worker pool; partial states
	// merge in file order so float accumulation stays deterministic.
	err := par.ForEachOrdered(len(union.Inputs), e.opts.Parallelism,
		func(i int) (*exec.Materialized, error) {
			// Swap the union for a single-file union and run the aggregate's
			// input subtree for that file only.
			single := &plan.UnionAll{Inputs: []plan.Node{union.Inputs[i]}}
			childPlan := plan.ReplaceNode(agg.Child, union, single)
			return exec.Run(childPlan, env)
		},
		func(_ int, mat *exec.Materialized) error {
			return accumulate(agg, states, mat)
		})
	if err != nil {
		return nil, err
	}
	row := finalizeStates(agg, proj, states)
	return &exec.Materialized{Schema: resolved.Schema(), Batches: []*vector.Batch{row}}, nil
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
