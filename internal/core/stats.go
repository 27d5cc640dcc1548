package core

import (
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/vector"
)

// This file wires the statistics-free planning layer (internal/stats)
// into the two-stage pipeline. Between Stage 1 and Stage 2 the frozen
// Qf result is a perfect, free cardinality oracle: exact per-record row
// counts and spans with zero statistics collection. The engine uses it
// to prune files from the mount list before the mount service sees
// them, pick hash-join build sides, and size admission requests
// honestly. Everything is gated by Options.StatsPlanning and guaranteed
// not to change results — only how much work producing them costs.

// StatsPlanningMode gates the statistics-free planner.
type StatsPlanningMode int

// StatsPlanning settings. The zero value is ON: the planner only ever
// skips provably useless work, so there is no reason to opt in.
const (
	// StatsPlanningOn enables Qf-fed pruning, build-side selection and
	// honest admission sizing (the default).
	StatsPlanningOn StatsPlanningMode = iota
	// StatsPlanningOff disables the oracle entirely; Stage 2 plans and
	// admits exactly as it would have before the planner existed. The
	// differential tests pin byte-identical results across both modes.
	StatsPlanningOff
)

func (m StatsPlanningMode) String() string {
	if m == StatsPlanningOff {
		return "off"
	}
	return "on"
}

func (e *Engine) statsPlanningOn() bool {
	return e.opts.StatsPlanning == StatsPlanningOn
}

// buildOracle harvests the frozen Qf result into a stats.Oracle. It
// returns nil when the metadata result doesn't carry record-granular
// columns (uri, record id, span bounds, row counts) — planning then
// proceeds exactly as with the oracle off.
func (e *Engine) buildOracle(p *Prepared, bp *Breakpoint) *stats.Oracle {
	if !p.HasStages || bp.qfResult == nil || len(p.actuals) == 0 {
		return nil
	}
	hints, ok := e.adapter.(EstimateHints)
	if !ok {
		return nil
	}
	actual := p.actuals[0]
	uriCol, err := plan.CollectURIColumn(p.Dec.Qs, p.Dec.Name, actual.Binding, e.adapter.URIColumn())
	if err != nil {
		return nil
	}
	ridCol, err := plan.CollectURIColumn(p.Dec.Qs, p.Dec.Name, actual.Binding, e.adapter.RecordIDColumn())
	if err != nil {
		return nil
	}
	loName, hiName := hints.RecordSpanColumns()
	uriIdx := bp.qfResult.Column(uriCol)
	ridIdx := bp.qfResult.Column(ridCol)
	loIdx := bp.qfResult.Column(loName)
	hiIdx := bp.qfResult.Column(hiName)
	rowsIdx := bp.qfResult.Column(hints.RowCountColumn())
	sizeIdx := bp.qfResult.Column(hints.FileSizeColumn()) // optional
	if uriIdx < 0 || ridIdx < 0 || loIdx < 0 || hiIdx < 0 || rowsIdx < 0 {
		return nil
	}

	o := stats.New(p.Dec.Name, int64(bp.qfResult.Rows()), e.derived)
	for _, b := range bp.qfResult.Batches {
		uris := b.Cols[uriIdx].Strings()
		rids := b.Cols[ridIdx].Int64s()
		los := b.Cols[loIdx].Int64s()
		his := b.Cols[hiIdx].Int64s()
		rows := b.Cols[rowsIdx].Int64s()
		var sizes []int64
		if sizeIdx >= 0 && b.Cols[sizeIdx].Kind() == vector.KindInt64 {
			sizes = b.Cols[sizeIdx].Int64s()
		}
		for i := range uris {
			var size int64
			if sizes != nil {
				size = sizes[i]
			}
			o.AddRecord(uris[i], size, stats.RecordStats{
				RecordID: rids[i], Rows: rows[i], SpanLo: los[i], SpanHi: his[i],
			})
		}
	}

	// The residual predicate Stage 2 will apply at every mount: interval
	// bounds over the span (time) and value (float) columns license the
	// prune rules.
	_, _, dataDef := e.adapter.Tables()
	spanName := actual.Binding + "." + e.adapter.DataSpanColumn()
	valName := ""
	if e.dataValCol >= 0 {
		valName = actual.Binding + "." + dataDef.Columns[e.dataValCol].Name
	}
	o.SetResidual(actual.Pred, spanName, valName)
	return o
}

// stage2Mounts folds the breakpoint's planner counters into the
// execution env's mount statistics and records them on the engine.
func (b *Breakpoint) stage2Mounts(env *exec.Env) exec.MountStats {
	ms := env.MountsSnapshot()
	ms.PrunedFiles += b.prunedFiles
	ms.PrunedRecords += b.prunedRecords
	ms.BytesNotMounted += b.bytesNotMounted
	b.pq.eng.notePlannerStats(ms)
	return ms
}

// PlannerStats is the engine-lifetime snapshot of statistics-free
// planner activity, for cmd/explorer's \stats display.
type PlannerStats struct {
	PrunedFiles         int64
	PrunedRecords       int64
	BytesNotMounted     int64
	JoinBuildFlips      int64
	AdmissionBytesSaved int64
}

// PlannerStats returns planner counters accumulated across every query
// of the engine (admission savings come from the shared mount service).
func (e *Engine) PlannerStats() PlannerStats {
	return PlannerStats{
		PrunedFiles:         e.statPrunedFiles.Load(),
		PrunedRecords:       e.statPrunedRecords.Load(),
		BytesNotMounted:     e.statBytesNotMounted.Load(),
		JoinBuildFlips:      e.statJoinBuildFlips.Load(),
		AdmissionBytesSaved: e.mounts.Stats().AdmissionBytesSaved,
	}
}

// notePlannerStats accumulates one stage-2 execution's planner counters
// into the engine-lifetime totals.
func (e *Engine) notePlannerStats(ms exec.MountStats) {
	e.statPrunedFiles.Add(int64(ms.PrunedFiles))
	e.statPrunedRecords.Add(int64(ms.PrunedRecords))
	e.statBytesNotMounted.Add(ms.BytesNotMounted)
	e.statJoinBuildFlips.Add(int64(ms.JoinBuildFlips))
}
