package core

import (
	"repro/internal/derived"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/vector"
)

// tryDerivedAnswer attempts to answer the query from derived metadata
// alone (paper §5, "Extending metadata"): when the query is a global
// aggregate of the data table's value column whose only actual-data
// restriction is a span window, and every record of interest has already
// been summarized by an earlier mount, the answer is computed without
// ingesting anything.
func (e *Engine) tryDerivedAnswer(p *Prepared, bp *Breakpoint) (*Result, bool) {
	if !p.HasStages || bp.qfResult == nil || len(p.actuals) != 1 {
		return nil, false
	}
	actual := p.actuals[0]
	_, _, dataDef := e.adapter.Tables()
	if e.dataValCol < 0 {
		return nil, false
	}
	valName := actual.Binding + "." + dataDef.Columns[e.dataValCol].Name

	// The span must be all the actual-data predicate says: a residual
	// (another column, <>, OR) filters rows the record summaries cannot.
	if len(bp.span.Residual) > 0 {
		return nil, false
	}

	// Plan shape: Project(Aggregate(join...)) with one aggregate over the
	// value column and no GROUP BY.
	proj, agg, _ := matchGlobalAggOverJoin(p.Dec.Qs)
	if agg == nil || len(agg.Aggs) != 1 {
		return nil, false
	}
	spec := agg.Aggs[0]
	if spec.Distinct {
		return nil, false
	}
	var argName string
	if spec.Arg != nil {
		col, ok := spec.Arg.(*expr.Col)
		if !ok {
			return nil, false
		}
		argName = col.Name
	}
	if spec.Func != plan.AggCount && argName != valName {
		return nil, false
	}
	if spec.Func == plan.AggCount && spec.Arg != nil && argName != valName {
		return nil, false
	}

	// The join must pair D rows with Qf rows on both uri and record id, so
	// each record of interest appears exactly once in the Qf result.
	uriCol, err := plan.CollectURIColumn(p.Dec.Qs, p.Dec.Name, actual.Binding, e.adapter.URIColumn())
	if err != nil {
		return nil, false
	}
	ridCol, err := plan.CollectURIColumn(p.Dec.Qs, p.Dec.Name, actual.Binding, e.adapter.RecordIDColumn())
	if err != nil {
		return nil, false
	}
	hints, ok := e.adapter.(EstimateHints)
	if !ok {
		return nil, false
	}
	loName, hiName := hints.RecordSpanColumns()

	uriIdx := bp.qfResult.Column(uriCol)
	ridIdx := bp.qfResult.Column(ridCol)
	loIdx := bp.qfResult.Column(loName)
	hiIdx := bp.qfResult.Column(hiName)
	if uriIdx < 0 || ridIdx < 0 || loIdx < 0 || hiIdx < 0 {
		return nil, false
	}
	var refs []derived.RecordRef
	for _, b := range bp.qfResult.Batches {
		uris := b.Cols[uriIdx].Strings()
		rids := b.Cols[ridIdx].Int64s()
		los := b.Cols[loIdx].Int64s()
		his := b.Cols[hiIdx].Int64s()
		for i := range uris {
			refs = append(refs, derived.RecordRef{
				URI: uris[i], RecordID: rids[i], SpanLo: los[i], SpanHi: his[i],
			})
		}
	}
	val, ok := e.derived.Answer(refs, bp.span.Lo, bp.span.Hi, spec.Func)
	if !ok {
		return nil, false
	}

	// Assemble the single-row result with the projected schema.
	outSchema := p.Dec.Qs.Schema()
	if proj != nil {
		outSchema = proj.Schema()
	}
	if len(outSchema) != 1 {
		return nil, false
	}
	col := vector.New(outSchema[0].Kind, 1)
	switch outSchema[0].Kind {
	case vector.KindFloat64:
		col.AppendFloat64(val.AsFloat())
	case vector.KindInt64:
		col.AppendInt64(val.AsInt())
	case vector.KindTime:
		col.AppendInt64(val.AsInt())
	default:
		return nil, false
	}
	mat := &exec.Materialized{Schema: outSchema, Batches: []*vector.Batch{vector.NewBatch(col)}}
	return &Result{Columns: columnNames(outSchema), Mat: mat}, true
}

// matchGlobalAggOverJoin is like matchGlobalAggOverUnion but before rule
// (1) has run: the aggregate sits over the join of the (not yet
// expanded) actual scan with the result-scan.
func matchGlobalAggOverJoin(root plan.Node) (*plan.Project, *plan.Aggregate, plan.Node) {
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
	return proj, agg, agg.Child
}
