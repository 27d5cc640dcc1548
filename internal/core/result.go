package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/explore"
	"repro/internal/plan"
	"repro/internal/vector"
)

// Stats records where a query's time went, stage by stage.
type Stats struct {
	// Stage1Wall/Stage2Wall are measured wall times of the two stages;
	// Stage1IO/Stage2IO are the modeled I/O charged during each. Total*
	// include plan time.
	Stage1Wall, Stage2Wall, TotalWall time.Duration
	Stage1IO, Stage2IO, TotalIO       time.Duration
	// FilesOfInterest is |result-scan(Qf)| distinct files; Mounts details
	// the second stage's ALi activity.
	FilesOfInterest int
	Mounts          exec.MountStats
	// Estimate is the breakpoint informativeness estimate.
	Estimate explore.Estimate
	// MetadataOnly: answered entirely by the first stage.
	MetadataOnly bool
	// AnsweredFromDerived: answered from derived metadata, skipping ALi.
	AnsweredFromDerived bool
	// StoppedEarly marks a multi-stage execution the explorer stopped
	// before all files of interest were ingested; the result is the
	// partial aggregate over the ingested prefix.
	StoppedEarly bool
	// ServedFromResultCache: the whole query was answered by an O(1)
	// share of a cached result — no stage executed. CoalescedRider
	// additionally marks that the share came from riding another
	// client's concurrent execution of the identical query.
	ServedFromResultCache bool
	CoalescedRider        bool
	// ServedBySubsumption: the answer came from re-filtering a *wider*
	// cached result whose predicate contains this query's (semantic
	// caching). SubsumedFrom is the wider entry's fingerprint and
	// RefilterWall the time spent re-filtering it.
	ServedBySubsumption bool
	SubsumedFrom        plan.Fingerprint
	RefilterWall        time.Duration
}

// Modeled returns the query's combined wall + modeled-I/O time: the
// number benchmarks report ("time it would have taken on the modeled
// disk").
func (s Stats) Modeled() time.Duration { return s.TotalWall + s.TotalIO }

// Result is a completed query.
type Result struct {
	Columns []string
	Mat     *exec.Materialized
	Stats   Stats
}

// Rows returns the number of result rows.
func (r *Result) Rows() int {
	if r.Mat == nil {
		return 0
	}
	return r.Mat.Rows()
}

// Value returns the value at (row, col) across batches.
func (r *Result) Value(row, col int) vector.Value {
	for _, b := range r.Mat.Batches {
		if row < b.Len() {
			return b.Cols[col].Get(row)
		}
		row -= b.Len()
	}
	panic(fmt.Sprintf("core: Value(%d,%d) out of range", row, col))
}

// Float is a convenience accessor for single-value aggregate results.
func (r *Result) Float(row, col int) float64 {
	return r.Value(row, col).AsFloat()
}

// Format renders the result as an aligned text table capped at maxRows.
func (r *Result) Format(maxRows int) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(r.Columns, "\t"))
	sb.WriteByte('\n')
	n := 0
	for _, b := range r.Mat.Batches {
		for i := 0; i < b.Len(); i++ {
			if maxRows > 0 && n >= maxRows {
				sb.WriteString(fmt.Sprintf("... (%d more rows)\n", r.Rows()-n))
				return sb.String()
			}
			sb.WriteString(b.FormatRow(i))
			sb.WriteByte('\n')
			n++
		}
	}
	return sb.String()
}
