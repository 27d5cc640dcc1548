package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/derived"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/vector"
)

func col(name string, k vector.Kind) *expr.Col { return &expr.Col{Name: name, K: k} }

func cmp(op expr.CmpOp, l, r expr.Expr) expr.Expr { return &expr.Compare{Op: op, L: l, R: r} }

func timeConst(ns int64) *expr.Const { return &expr.Const{Val: vector.Time(ns)} }

func floatConst(f float64) *expr.Const { return &expr.Const{Val: vector.Float64(f)} }

const (
	spanCol = "D.sample_time"
	valCol  = "D.sample_value"
)

func TestAddRecordDedupes(t *testing.T) {
	o := New("Qf", 4, nil)
	o.AddRecord("f", 100, RecordStats{RecordID: 1, Rows: 10, SpanLo: 0, SpanHi: 9})
	o.AddRecord("f", 100, RecordStats{RecordID: 1, Rows: 10, SpanLo: 0, SpanHi: 9})
	o.AddRecord("f", 120, RecordStats{RecordID: 2, Rows: 5, SpanLo: 10, SpanHi: 19})
	fs := o.File("f")
	if fs == nil || len(fs.Records) != 2 {
		t.Fatalf("records = %+v, want 2 deduped", fs)
	}
	if fs.Bytes != 120 {
		t.Errorf("Bytes = %d, want max 120", fs.Bytes)
	}
	if o.File("ghost") != nil {
		t.Error("unknown file returned stats")
	}
}

func TestPruneFilesKeepsUnknown(t *testing.T) {
	o := New("Qf", 2, nil)
	o.AddRecord("dead", 100, RecordStats{RecordID: 0, Rows: 10, SpanLo: 0, SpanHi: 9})
	o.AddRecord("live", 100, RecordStats{RecordID: 0, Rows: 10, SpanLo: 50, SpanHi: 59})
	o.SetResidual(cmp(expr.Ge, col(spanCol, vector.KindTime), timeConst(50)), spanCol, valCol)

	files := []plan.MountSpec{{URI: "dead"}, {URI: "live"}, {URI: "unknown"}}
	kept, rep := o.PruneFiles(files)
	if len(kept) != 2 || kept[0].URI != "live" || kept[1].URI != "unknown" {
		t.Fatalf("kept = %+v", kept)
	}
	if rep.PrunedFiles != 1 || rep.PrunedRecords != 1 || rep.BytesNotMounted != 100 {
		t.Errorf("report = %+v", rep)
	}
	if len(files) != 3 {
		t.Error("input slice modified")
	}
}

func TestEstimateBytes(t *testing.T) {
	o := New("Qf", 4, nil)
	// 4 records x 10 rows; residual keeps only the last record.
	for i := int64(0); i < 4; i++ {
		o.AddRecord("f", 400, RecordStats{RecordID: i, Rows: 10, SpanLo: i * 10, SpanHi: i*10 + 9})
	}
	o.SetResidual(cmp(expr.Ge, col(spanCol, vector.KindTime), timeConst(30)), spanCol, valCol)
	if got := o.EstimateBytes("f"); got != 100 {
		t.Errorf("EstimateBytes = %d, want 100 (quarter of the file)", got)
	}
	if got := o.EstimateBytes("unknown"); got != 0 {
		t.Errorf("unknown file estimate = %d, want 0", got)
	}
	// Unrestricted residual: no estimate, mountsvc charges the stat size.
	o2 := New("Qf", 4, nil)
	o2.AddRecord("f", 400, RecordStats{RecordID: 0, Rows: 10, SpanLo: 0, SpanHi: 9})
	if got := o2.EstimateBytes("f"); got != 0 {
		t.Errorf("unrestricted estimate = %d, want 0", got)
	}
}

func TestNodeRows(t *testing.T) {
	o := New("Qf", 42, nil)
	o.AddRecord("a", 0, RecordStats{RecordID: 0, Rows: 7, SpanLo: 0, SpanHi: 9})
	o.AddRecord("a", 0, RecordStats{RecordID: 1, Rows: 5, SpanLo: 100, SpanHi: 109})
	o.SetResidual(cmp(expr.Le, col(spanCol, vector.KindTime), timeConst(50)), spanCol, valCol)

	if r, ok := o.NodeRows(&plan.ResultScan{Name: "Qf"}); !ok || r != 42 {
		t.Errorf("ResultScan(Qf) = %d,%v want 42", r, ok)
	}
	if _, ok := o.NodeRows(&plan.ResultScan{Name: "other"}); ok {
		t.Error("foreign result scan should be unknown")
	}
	// Record 1 is span-pruned: only record 0's rows count.
	mount := &plan.Mount{URI: "a"}
	if r, ok := o.NodeRows(mount); !ok || r != 7 {
		t.Errorf("Mount(a) = %d,%v want 7", r, ok)
	}
	union := &plan.UnionAll{Inputs: []plan.Node{mount, &plan.CacheScan{URI: "a"}}}
	if r, ok := o.NodeRows(union); !ok || r != 14 {
		t.Errorf("UnionAll = %d,%v want 14", r, ok)
	}
	if r, ok := o.NodeRows(&plan.UnionAll{}); !ok || r != 0 {
		t.Errorf("empty UnionAll = %d,%v want 0,true", r, ok)
	}
	if _, ok := o.NodeRows(&plan.Mount{URI: "ghost"}); ok {
		t.Error("unknown mount should be unknown")
	}
}

// TestPruningSoundnessProperty is the load-bearing test: across random
// repositories, residuals and derived summaries, a record reported
// prunable must contain no row satisfying the residual intervals —
// verified row by row against the generated ground truth.
func TestPruningSoundnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		d := derived.NewStore()
		o := New("Qf", 0, d)

		type row struct {
			t int64
			v float64
		}
		rows := make(map[string]map[int64][]row)

		nFiles := 1 + rng.Intn(3)
		for fi := 0; fi < nFiles; fi++ {
			uri := fmt.Sprintf("file-%d", fi)
			rows[uri] = make(map[int64][]row)
			nRecs := 1 + rng.Intn(4)
			for ri := 0; ri < nRecs; ri++ {
				rid := int64(ri)
				n := 1 + rng.Intn(20)
				base := int64(rng.Intn(1000))
				var rs []row
				lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
				rids := vector.New(vector.KindInt64, 0)
				spans := vector.New(vector.KindTime, 0)
				vals := vector.New(vector.KindFloat64, 0)
				for k := 0; k < n; k++ {
					ts := base + int64(rng.Intn(100))
					v := float64(rng.Intn(200) - 100)
					rs = append(rs, row{ts, v})
					if ts < lo {
						lo = ts
					}
					if ts > hi {
						hi = ts
					}
					rids.AppendInt64(rid)
					spans.AppendValue(vector.Time(ts))
					vals.AppendFloat64(v)
				}
				rows[uri][rid] = rs
				o.AddRecord(uri, 1000, RecordStats{RecordID: rid, Rows: int64(n), SpanLo: lo, SpanHi: hi})
				// Half the records get a derived summary (observation is
				// best-effort in the engine too).
				if rng.Intn(2) == 0 {
					d.Observe(uri, vector.NewBatch(rids, spans, vals), 0, 1, 2)
				}
			}
		}

		// Random residual: optional span bounds, optional value bounds.
		var conj []expr.Expr
		if rng.Intn(4) > 0 {
			lo := int64(rng.Intn(1100))
			conj = append(conj,
				cmp(expr.Ge, col(spanCol, vector.KindTime), timeConst(lo)),
				cmp(expr.Le, col(spanCol, vector.KindTime), timeConst(lo+int64(rng.Intn(200)))))
		}
		if rng.Intn(3) > 0 {
			lo := float64(rng.Intn(220) - 110)
			ops := []expr.CmpOp{expr.Gt, expr.Ge}
			conj = append(conj,
				cmp(ops[rng.Intn(2)], col(valCol, vector.KindFloat64), floatConst(lo)),
				cmp(ops[rng.Intn(2)], floatConst(lo+float64(rng.Intn(50))), col(valCol, vector.KindFloat64)))
		}
		o.SetResidual(expr.JoinAnd(conj), spanCol, valCol)

		spanInt, hasSpan := o.SpanInterval()
		valInt, hasVal := o.ValueInterval()
		qualifies := func(r row) bool {
			if hasSpan && (r.t < spanInt.Lo || r.t > spanInt.Hi) {
				return false
			}
			if hasVal && valInt.Disjoint(vector.Float64(r.v), vector.Float64(r.v)) {
				return false
			}
			return true
		}

		for uri, recs := range rows {
			fs := o.File(uri)
			var specs []plan.MountSpec
			specs = append(specs, plan.MountSpec{URI: uri})
			kept, _ := o.PruneFiles(specs)
			fileKept := len(kept) == 1
			anyQualifies := false
			for _, rec := range fs.Records {
				recQualifies := false
				for _, r := range recs[rec.RecordID] {
					if qualifies(r) {
						recQualifies = true
						anyQualifies = true
					}
				}
				if o.PrunableRecord(uri, rec) && recQualifies {
					t.Fatalf("trial %d: record %s/%d pruned but a row qualifies (span=%v/%v val=%v/%v)",
						trial, uri, rec.RecordID, spanInt, hasSpan, valInt, hasVal)
				}
			}
			if !fileKept && anyQualifies {
				t.Fatalf("trial %d: file %s pruned but contains a qualifying row", trial, uri)
			}
			// NodeRows(mount) must be an upper bound on qualifying rows.
			if nr, ok := o.NodeRows(&plan.Mount{URI: uri}); ok {
				var qcount int64
				for _, rs := range recs {
					for _, r := range rs {
						if qualifies(r) {
							qcount++
						}
					}
				}
				if nr < qcount {
					t.Fatalf("trial %d: NodeRows(%s) = %d < qualifying rows %d", trial, uri, nr, qcount)
				}
			}
		}
	}
}

// TestEstimateBytesProperty pins the estimate's contract: always in
// [1, Bytes] when non-zero, and monotone — a wider residual never
// yields a smaller estimate denominator's worth of surviving rows.
func TestEstimateBytesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		o := New("Qf", 0, nil)
		bytes := int64(1 + rng.Intn(100000))
		nRecs := 1 + rng.Intn(6)
		for ri := 0; ri < nRecs; ri++ {
			base := int64(rng.Intn(1000))
			o.AddRecord("f", bytes, RecordStats{
				RecordID: int64(ri), Rows: int64(1 + rng.Intn(50)),
				SpanLo: base, SpanHi: base + int64(rng.Intn(100)),
			})
		}
		lo := int64(rng.Intn(1200))
		o.SetResidual(expr.JoinAnd([]expr.Expr{
			cmp(expr.Ge, col(spanCol, vector.KindTime), timeConst(lo)),
			cmp(expr.Le, col(spanCol, vector.KindTime), timeConst(lo+int64(rng.Intn(300)))),
		}), spanCol, valCol)
		est := o.EstimateBytes("f")
		if est < 0 || est > bytes {
			t.Fatalf("trial %d: estimate %d outside [0,%d]", trial, est, bytes)
		}
	}
}
