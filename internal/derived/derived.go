// Package derived implements derived metadata (paper §5, "Extending
// metadata"): summary statistics computed as a side-effect of ALi,
// without the explorer noticing, and consulted later to answer summary
// queries without re-mounting the same files.
//
// The store keeps one summary per (file, record): count, sum, min, max of
// the value column plus the record's span. A later aggregate query whose
// selection covers each record of interest either fully or not at all can
// be answered purely from these summaries.
package derived

import (
	"math"
	"sync"

	"repro/internal/plan"
	"repro/internal/vector"
)

// RecordSummary is the derived metadata of one mounted record.
type RecordSummary struct {
	URI      string
	RecordID int64
	Count    int64
	Sum      float64
	Min, Max float64
	SpanLo   int64
	SpanHi   int64
}

type key struct {
	uri string
	rid int64
}

// Store holds record summaries. It is safe for concurrent use.
type Store struct {
	mu sync.RWMutex
	m  map[key]RecordSummary
}

// NewStore returns an empty derived-metadata store.
func NewStore() *Store {
	return &Store{m: make(map[key]RecordSummary)}
}

// Len returns the number of summarized records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Observe summarizes a mounted batch. The column positions identify the
// record id, span (time) and value columns of the data-table schema; the
// batch must be the FULL mounted file (before selections) so summaries
// describe whole records.
func (s *Store) Observe(uri string, b *vector.Batch, ridCol, spanCol, valCol int) {
	n := b.Len()
	if n == 0 {
		return
	}
	// Get reads a mounted record's Const record_id without expanding it.
	rids := b.Cols[ridCol]
	spans := b.Cols[spanCol].Int64s()
	vals := b.Cols[valCol].Float64s()

	acc := make(map[int64]*RecordSummary)
	for i := 0; i < n; i++ {
		id := rids.Get(i).I
		rs, ok := acc[id]
		if !ok {
			rs = &RecordSummary{
				URI: uri, RecordID: id,
				Min: math.Inf(1), Max: math.Inf(-1),
				SpanLo: math.MaxInt64, SpanHi: math.MinInt64,
			}
			acc[id] = rs
		}
		rs.Count++
		rs.Sum += vals[i]
		if vals[i] < rs.Min {
			rs.Min = vals[i]
		}
		if vals[i] > rs.Max {
			rs.Max = vals[i]
		}
		if spans[i] < rs.SpanLo {
			rs.SpanLo = spans[i]
		}
		if spans[i] > rs.SpanHi {
			rs.SpanHi = spans[i]
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rs := range acc {
		s.m[key{rs.URI, rs.RecordID}] = *rs
	}
}

// Lookup returns the summary of one record.
func (s *Store) Lookup(uri string, recordID int64) (RecordSummary, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rs, ok := s.m[key{uri, recordID}]
	return rs, ok
}

// RecordRef identifies one record of interest (from the metadata stage)
// with its span bounds.
type RecordRef struct {
	URI      string
	RecordID int64
	SpanLo   int64
	SpanHi   int64
}

// Answer attempts to compute an aggregate over the value column from
// summaries alone. The query's selection restricts the span column to
// [spanLo, spanHi]. The attempt succeeds only when every record of
// interest is either entirely inside the span (its summary contributes)
// or entirely outside (it is skipped); a partially covered record would
// require actual data, so Answer reports ok=false and the engine falls
// back to ALi.
func (s *Store) Answer(records []RecordRef, spanLo, spanHi int64, fn plan.AggFunc) (vector.Value, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var count int64
	var sum float64
	min, max := math.Inf(1), math.Inf(-1)
	for _, r := range records {
		if r.SpanLo > spanHi || r.SpanHi < spanLo {
			continue // disjoint: contributes nothing
		}
		if r.SpanLo < spanLo || r.SpanHi > spanHi {
			return vector.Value{}, false // partial coverage: need actual data
		}
		rs, ok := s.m[key{r.URI, r.RecordID}]
		if !ok {
			return vector.Value{}, false // never mounted: no summary yet
		}
		count += rs.Count
		sum += rs.Sum
		if rs.Min < min {
			min = rs.Min
		}
		if rs.Max > max {
			max = rs.Max
		}
	}
	switch fn {
	case plan.AggCount:
		return vector.Int64(count), true
	case plan.AggSum:
		return vector.Float64(sum), true
	case plan.AggAvg:
		if count == 0 {
			return vector.Float64(0), true
		}
		return vector.Float64(sum / float64(count)), true
	case plan.AggMin:
		if count == 0 {
			return vector.Int64(0), true
		}
		return vector.Float64(min), true
	case plan.AggMax:
		if count == 0 {
			return vector.Int64(0), true
		}
		return vector.Float64(max), true
	}
	return vector.Value{}, false
}
