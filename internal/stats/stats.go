// Package stats is the statistics-free planning layer: exact
// cardinalities and spans harvested from the frozen Qf result, plus
// per-record value summaries the ALi ingestion path already collects in
// internal/derived. Classic optimizers estimate; two-stage execution
// measures — by the time Qs is planned, Qf has been run and frozen, so
// every number the Oracle serves is exact, not an estimate.
//
// The Oracle answers three planning questions for Stage 2:
//
//   - which files/records provably cannot contribute a qualifying row
//     (PruneFiles: the metadata record span or the derived value
//     interval is disjoint from the residual predicate's interval);
//   - how many rows a plan subtree yields at most (NodeRows, driving
//     hash-join build-side selection);
//   - how many bytes a mount will really buffer (EstimateBytes,
//     scaling the file size by surviving records so admission stops
//     charging worst case).
//
// Soundness contract: pruning only ever drops a record when *no* row of
// it can satisfy the residual predicate, and NodeRows returns upper
// bounds that are exact for ResultScan — so a zero means provably
// empty. Both properties are what lets core keep the differential
// guarantee (byte-identical results with planning on or off).
package stats

import (
	"math"
	"sort"

	"repro/internal/derived"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/vector"
)

// RecordStats is one record's metadata-result row: exact row count and
// coverage span, straight out of the frozen Qf result.
type RecordStats struct {
	RecordID int64
	Rows     int64
	SpanLo   int64 // nanoseconds, inclusive
	SpanHi   int64 // nanoseconds, inclusive
}

// FileStats aggregates the Qf rows of one file.
type FileStats struct {
	URI     string
	Bytes   int64 // on-disk size from metadata, 0 if unknown
	Records []RecordStats
}

// PruneReport summarizes one PruneFiles pass.
type PruneReport struct {
	PrunedFiles     int
	PrunedRecords   int   // records belonging to dropped files
	BytesNotMounted int64 // on-disk bytes of dropped files
}

// Oracle serves exact Stage-2 planning facts for one prepared query. It
// is built once between Stage 1 and Stage 2 and read-only afterwards,
// so it is safe to share across parallel Stage-2 workers.
type Oracle struct {
	resultName string
	qfRows     int64
	derived    *derived.Store
	files      map[string]*FileStats

	// What the Qs residual over the actual-data scan says about the span
	// (time) and value (float) columns, as plan's extractor reports it.
	// Conjuncts it could not absorb only weaken the intervals, so pruning
	// stays sound.
	span plan.Span
	val  plan.Interval
}

// New creates an Oracle for the named frozen Qf result with qfRows rows.
// The derived store may be nil (value-interval pruning then stays off).
func New(resultName string, qfRows int64, d *derived.Store) *Oracle {
	return &Oracle{
		resultName: resultName,
		qfRows:     qfRows,
		derived:    d,
		files:      make(map[string]*FileStats),
	}
}

// AddRecord registers one Qf result row: record rec of file uri, whose
// on-disk size is fileBytes (0 if the metadata doesn't carry it).
// Duplicate (uri, record) rows — possible when Qf joins fan out — are
// collapsed to one.
func (o *Oracle) AddRecord(uri string, fileBytes int64, rec RecordStats) {
	fs := o.files[uri]
	if fs == nil {
		fs = &FileStats{URI: uri}
		o.files[uri] = fs
	}
	if fileBytes > fs.Bytes {
		fs.Bytes = fileBytes
	}
	for _, r := range fs.Records {
		if r.RecordID == rec.RecordID {
			return
		}
	}
	fs.Records = append(fs.Records, rec)
}

// File returns the stats collected for uri, or nil when Qf never named
// it.
func (o *Oracle) File(uri string) *FileStats {
	return o.files[uri]
}

// SetResidual extracts interval bounds from the Qs residual predicate
// over the actual-data scan. spanName/valName are the qualified span
// (time) and value (float) column names of the actual binding.
func (o *Oracle) SetResidual(pred expr.Expr, spanName, valName string) {
	o.span = plan.ColumnSpan(pred, spanName)
	if o.derived != nil { // value bounds prune only against derived summaries
		o.val, _ = plan.ColumnInterval(pred, valName)
	}
}

// SpanInterval exposes the extracted span bounds (for tests and
// explain output). ok is false when the residual constrains nothing.
func (o *Oracle) SpanInterval() (plan.Span, bool) { return o.span, o.span.Bounded() }

// ValueInterval exposes the extracted value bounds.
func (o *Oracle) ValueInterval() (plan.Interval, bool) { return o.val, o.val.HasLo || o.val.HasHi }

// spanPruned reports whether the record's metadata span misses the span
// interval entirely.
func (o *Oracle) spanPruned(rec RecordStats) bool {
	return o.span.Bounded() && (rec.SpanHi < o.span.Lo || rec.SpanLo > o.span.Hi)
}

// PrunableRecord reports whether the record provably contributes no
// qualifying row: its metadata span misses the span interval entirely,
// or a derived summary proves every value in it misses the value
// interval. Exported so property tests can drive it directly.
func (o *Oracle) PrunableRecord(uri string, rec RecordStats) bool {
	if o.spanPruned(rec) {
		return true
	}
	if o.val.HasLo || o.val.HasHi {
		if s, ok := o.derived.Lookup(uri, rec.RecordID); ok && s.Count > 0 &&
			o.val.Disjoint(vector.Float64(s.Min), vector.Float64(s.Max)) {
			return true
		}
	}
	return false
}

// survivingRows returns how many rows of the file survive span pruning
// alone (the bytes a mount must still buffer: value-pruned records are
// decoded into the replay buffer regardless), and whether any record at
// all — after both prune rules — can contribute.
func (o *Oracle) survivors(fs *FileStats) (spanRows, totalRows int64, any bool) {
	for _, rec := range fs.Records {
		totalRows += rec.Rows
		if !o.spanPruned(rec) {
			spanRows += rec.Rows
		}
		if !o.PrunableRecord(fs.URI, rec) {
			any = true
		}
	}
	return spanRows, totalRows, any
}

// PruneFiles drops the mount specs whose every record is provably
// non-contributing. Files Qf never described are kept — unknown means
// unprunable. The input slice is not modified.
func (o *Oracle) PruneFiles(files []plan.MountSpec) ([]plan.MountSpec, PruneReport) {
	var rep PruneReport
	kept := make([]plan.MountSpec, 0, len(files))
	for _, f := range files {
		fs := o.files[f.URI]
		if fs == nil || len(fs.Records) == 0 {
			kept = append(kept, f)
			continue
		}
		if _, _, any := o.survivors(fs); any {
			kept = append(kept, f)
			continue
		}
		rep.PrunedFiles++
		rep.PrunedRecords += len(fs.Records)
		rep.BytesNotMounted += fs.Bytes
	}
	return kept, rep
}

// EstimateBytes predicts how many bytes mounting uri will buffer: the
// file size scaled by the fraction of rows in span-surviving records.
// Value-pruned records still get decoded into the replay buffer, so
// only span pruning (which mountsvc skips at extraction time) shrinks
// the estimate. Returns 0 (unknown) when the file or its size is
// unknown or nothing is restricted, and never less than 1 for a known
// non-empty file.
func (o *Oracle) EstimateBytes(uri string) int64 {
	fs := o.files[uri]
	if fs == nil || fs.Bytes == 0 || !o.span.Bounded() {
		return 0
	}
	spanRows, totalRows, _ := o.survivors(fs)
	if totalRows == 0 {
		return 0
	}
	if spanRows >= totalRows {
		return 0 // nothing saved; let mountsvc use the stat size
	}
	est := int64(math.Ceil(float64(fs.Bytes) * float64(spanRows) / float64(totalRows)))
	if est < 1 {
		est = 1
	}
	if est > fs.Bytes {
		est = fs.Bytes
	}
	return est
}

// NodeRows returns the number of rows the plan subtree yields. The
// bound is exact for ResultScan of the frozen Qf result and an exact
// upper bound elsewhere — in particular, 0 means provably empty, which
// is what licenses early join termination. ok is false for shapes the
// oracle doesn't model.
func (o *Oracle) NodeRows(n plan.Node) (int64, bool) {
	switch t := n.(type) {
	case *plan.ResultScan:
		if t.Name == o.resultName {
			return o.qfRows, true
		}
		return 0, false
	case *plan.Mount:
		return o.scanRows(t.URI)
	case *plan.CacheScan:
		return o.scanRows(t.URI)
	case *plan.Select:
		return o.NodeRows(t.Child)
	case *plan.Project:
		return o.NodeRows(t.Child)
	case *plan.UnionAll:
		var sum int64
		for _, in := range t.Inputs {
			r, ok := o.NodeRows(in)
			if !ok {
				return 0, false
			}
			sum += r
		}
		return sum, true
	}
	return 0, false
}

func (o *Oracle) scanRows(uri string) (int64, bool) {
	fs := o.files[uri]
	if fs == nil || len(fs.Records) == 0 {
		return 0, false
	}
	var rows int64
	for _, rec := range fs.Records {
		if !o.PrunableRecord(uri, rec) {
			rows += rec.Rows
		}
	}
	return rows, true
}

// URIs returns the known file URIs in deterministic order.
func (o *Oracle) URIs() []string {
	out := make([]string, 0, len(o.files))
	for u := range o.files {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}
