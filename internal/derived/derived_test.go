package derived

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/plan"
	"repro/internal/vector"
)

// observedStore builds a store with two records of one file:
// record 0 spans [0, 90] with values 1..10, record 1 spans [100, 190]
// with values 11..20.
func observedStore() *Store {
	s := NewStore()
	rids := make([]int64, 20)
	spans := make([]int64, 20)
	vals := make([]float64, 20)
	for i := 0; i < 20; i++ {
		rids[i] = int64(i / 10)
		spans[i] = int64(i%10)*10 + int64(i/10)*100
		vals[i] = float64(i + 1)
	}
	b := vector.NewBatch(vector.FromInt64(rids), vector.FromTime(spans), vector.FromFloat64(vals))
	s.Observe("f.mseed", b, 0, 1, 2)
	return s
}

func refs() []RecordRef {
	return []RecordRef{
		{URI: "f.mseed", RecordID: 0, SpanLo: 0, SpanHi: 90},
		{URI: "f.mseed", RecordID: 1, SpanLo: 100, SpanHi: 190},
	}
}

func TestObserveSummaries(t *testing.T) {
	s := observedStore()
	if s.Len() != 2 {
		t.Fatalf("summaries = %d, want 2", s.Len())
	}
	rs, ok := s.Lookup("f.mseed", 0)
	if !ok {
		t.Fatal("record 0 missing")
	}
	if rs.Count != 10 || rs.Sum != 55 || rs.Min != 1 || rs.Max != 10 {
		t.Errorf("summary = %+v", rs)
	}
	if rs.SpanLo != 0 || rs.SpanHi != 90 {
		t.Errorf("span = [%d,%d]", rs.SpanLo, rs.SpanHi)
	}
}

func TestAnswerFullCoverage(t *testing.T) {
	s := observedStore()
	v, ok := s.Answer(refs(), 0, 190, plan.AggAvg)
	if !ok {
		t.Fatal("full-coverage answer failed")
	}
	if math.Abs(v.AsFloat()-10.5) > 1e-9 {
		t.Errorf("AVG = %v, want 10.5", v)
	}
	v, _ = s.Answer(refs(), 0, 190, plan.AggSum)
	if v.AsFloat() != 210 {
		t.Errorf("SUM = %v, want 210", v)
	}
	v, _ = s.Answer(refs(), 0, 190, plan.AggCount)
	if v.AsInt() != 20 {
		t.Errorf("COUNT = %v, want 20", v)
	}
	v, _ = s.Answer(refs(), 0, 190, plan.AggMin)
	if v.AsFloat() != 1 {
		t.Errorf("MIN = %v", v)
	}
	v, _ = s.Answer(refs(), 0, 190, plan.AggMax)
	if v.AsFloat() != 20 {
		t.Errorf("MAX = %v", v)
	}
}

func TestAnswerSkipsDisjointRecords(t *testing.T) {
	s := observedStore()
	// Window covers only record 1.
	v, ok := s.Answer(refs(), 95, 200, plan.AggSum)
	if !ok {
		t.Fatal("answer failed")
	}
	if v.AsFloat() != 155 { // 11+..+20
		t.Errorf("SUM = %v, want 155", v)
	}
}

func TestAnswerRefusesPartialCoverage(t *testing.T) {
	s := observedStore()
	if _, ok := s.Answer(refs(), 0, 50, plan.AggAvg); ok {
		t.Error("partial record coverage must refuse (needs actual data)")
	}
}

func TestAnswerRefusesUnsummarizedRecord(t *testing.T) {
	s := observedStore()
	more := append(refs(), RecordRef{URI: "g.mseed", RecordID: 0, SpanLo: 0, SpanHi: 90})
	if _, ok := s.Answer(more, 0, 190, plan.AggAvg); ok {
		t.Error("answer used a record that was never mounted")
	}
}

func TestAnswerEmptyWindow(t *testing.T) {
	s := observedStore()
	v, ok := s.Answer(refs(), 1000, 2000, plan.AggCount)
	if !ok || v.AsInt() != 0 {
		t.Errorf("empty-window COUNT = %v, ok=%v", v, ok)
	}
	v, ok = s.Answer(refs(), 1000, 2000, plan.AggAvg)
	if !ok || v.AsFloat() != 0 {
		t.Error("empty-window AVG should be 0")
	}
}

func TestAnswerMatchesDirectComputationProperty(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		n := len(raw)
		s := NewStore()
		rids := make([]int64, n)
		spans := make([]int64, n)
		vals := make([]float64, n)
		var sum float64
		for i, v := range raw {
			rids[i] = 0
			spans[i] = int64(i)
			vals[i] = float64(v)
			sum += float64(v)
		}
		s.Observe("p", vector.NewBatch(
			vector.FromInt64(rids), vector.FromTime(spans), vector.FromFloat64(vals)), 0, 1, 2)
		ref := []RecordRef{{URI: "p", RecordID: 0, SpanLo: 0, SpanHi: int64(n - 1)}}
		got, ok := s.Answer(ref, 0, int64(n-1), plan.AggSum)
		return ok && math.Abs(got.AsFloat()-sum) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestObserveEmptyBatch(t *testing.T) {
	s := NewStore()
	s.Observe("e", vector.NewBatch(
		vector.FromInt64(nil), vector.FromTime(nil), vector.FromFloat64(nil)), 0, 1, 2)
	if s.Len() != 0 {
		t.Error("empty batch created summaries")
	}
}

func TestObserveReplacesOnRemount(t *testing.T) {
	s := NewStore()
	mk := func(val float64) *vector.Batch {
		return vector.NewBatch(
			vector.FromInt64([]int64{0}), vector.FromTime([]int64{5}), vector.FromFloat64([]float64{val}))
	}
	s.Observe("f", mk(1), 0, 1, 2)
	s.Observe("f", mk(9), 0, 1, 2)
	rs, _ := s.Lookup("f", 0)
	if rs.Sum != 9 || rs.Count != 1 {
		t.Errorf("remount did not replace summary: %+v", rs)
	}
}
