package core

import (
	"fmt"
	"testing"
)

// pruneQuery widens the R window to three days while the D window stays
// inside one: the Qf result proves (per-record spans) that two of the
// three files of interest per station/channel cannot contribute a row,
// so the statistics-free planner must drop them before mounting.
const pruneQuery = `SELECT COUNT(*) AS n
FROM F JOIN R ON F.uri = R.uri
JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
WHERE F.station = 'ISK' AND F.channel = 'BHE'
AND R.start_time > '2010-01-11T00:00:00.000'
AND R.start_time < '2010-01-13T23:59:59.999'
AND D.sample_time > '2010-01-12T22:15:00.000'
AND D.sample_time < '2010-01-12T22:15:02.000';`

// orderFreeQuery is an order-insensitive global aggregate over the
// three-way F ⋈ R ⋈ D chain: its answer cannot depend on join order.
const orderFreeQuery = `SELECT COUNT(*) AS n, MIN(D.sample_value), MAX(D.sample_value)
FROM F JOIN R ON F.uri = R.uri
JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
WHERE F.station = 'ISK'
AND R.start_time > '2010-01-12T00:00:00.000'
AND R.start_time < '2010-01-12T23:59:59.999';`

// emptyQfQuery names a station the repository does not hold: Qf is
// empty, so Stage 2 has no file to mount.
const emptyQfQuery = `SELECT D.sample_time, D.sample_value
FROM F JOIN R ON F.uri = R.uri
JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
WHERE F.station = 'NOPE'
AND D.sample_time > '2010-01-12T22:15:00.000'
AND D.sample_time < '2010-01-12T22:15:02.000';`

// TestStatsPlanningDifferential pins the planner's core guarantee:
// byte-identical answers with StatsPlanning on and off, at serial and
// parallel execution, across order-sensitive (AVG, projection) and
// order-insensitive (COUNT, MIN, MAX) outputs, and over an empty Qf.
func TestStatsPlanningDifferential(t *testing.T) {
	m := testRepo(t)
	queries := []string{query1, query2, pruneQuery, orderFreeQuery, emptyQfQuery}
	for _, par := range []int{1, 4} {
		on := openEngine(t, m.Dir, Options{Mode: ModeALi, Parallelism: par})
		off := openEngine(t, m.Dir, Options{Mode: ModeALi, Parallelism: par, StatsPlanning: StatsPlanningOff})
		for qi, q := range queries {
			a, err := on.Query(q)
			if err != nil {
				t.Fatalf("par=%d q%d on: %v", par, qi, err)
			}
			b, err := off.Query(q)
			if err != nil {
				t.Fatalf("par=%d q%d off: %v", par, qi, err)
			}
			if a.Format(0) != b.Format(0) {
				t.Errorf("par=%d q%d: results differ\non:\n%s\noff:\n%s",
					par, qi, a.Format(0), b.Format(0))
			}
			if q == emptyQfQuery {
				if a.Rows() != 0 {
					t.Errorf("par=%d: empty Qf answered %d rows", par, a.Rows())
				}
				if n := a.Stats.Mounts.FilesMounted + b.Stats.Mounts.FilesMounted; n != 0 {
					t.Errorf("par=%d: empty Qf mounted %d files", par, n)
				}
			}
		}
	}
}

// TestEmptyQfMountsNothing pins what an empty Qf result does to Stage 2
// on both ways to finish it: the join's build side is empty, so the
// answer keeps the query's columns, has no rows, and no file mounts —
// whether Stage 2 runs once (Proceed) or per chunk (ProceedIncremental).
func TestEmptyQfMountsNothing(t *testing.T) {
	m := testRepo(t)
	wantCols := []string{"sample_time", "sample_value"}
	for _, par := range []int{1, 4} {
		e := openEngine(t, m.Dir, Options{Mode: ModeALi, Parallelism: par})
		finish := map[string]func(*Breakpoint) (*Result, error){
			"Proceed": (*Breakpoint).Proceed,
			"ProceedIncremental": func(bp *Breakpoint) (*Result, error) {
				return bp.ProceedIncremental(1, func(pt Partial) bool {
					if pt.FilesTotal != 0 {
						t.Errorf("par=%d: empty Qf reported %d files to ingest", par, pt.FilesTotal)
					}
					return true
				})
			},
		}
		for name, run := range finish {
			p, err := e.Prepare(emptyQfQuery)
			if err != nil {
				t.Fatal(err)
			}
			bp, err := p.Stage1()
			if err != nil {
				t.Fatal(err)
			}
			res, err := run(bp)
			if err != nil {
				t.Fatalf("par=%d %s: %v", par, name, err)
			}
			if res.Rows() != 0 {
				t.Errorf("par=%d %s: %d rows, want 0", par, name, res.Rows())
			}
			if n := res.Stats.Mounts.FilesMounted; n != 0 {
				t.Errorf("par=%d %s: mounted %d files, want 0", par, name, n)
			}
			if fmt.Sprint(res.Columns) != fmt.Sprint(wantCols) {
				t.Errorf("par=%d %s: columns %v, want %v", par, name, res.Columns, wantCols)
			}
		}
	}
}

// TestStatsPlanningPrunesFiles asserts the planner actually skips the
// two provably-irrelevant files and mounts strictly less than the
// unpruned engine does — with the same answer.
func TestStatsPlanningPrunesFiles(t *testing.T) {
	m := testRepo(t)
	on := openEngine(t, m.Dir, Options{Mode: ModeALi})
	off := openEngine(t, m.Dir, Options{Mode: ModeALi, StatsPlanning: StatsPlanningOff})

	ra, err := on.Query(pruneQuery)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := off.Query(pruneQuery)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Format(0) != rb.Format(0) {
		t.Fatalf("pruned answer differs:\non:\n%s\noff:\n%s", ra.Format(0), rb.Format(0))
	}
	ms, msOff := ra.Stats.Mounts, rb.Stats.Mounts
	if ms.PrunedFiles != 2 {
		t.Errorf("PrunedFiles = %d, want 2", ms.PrunedFiles)
	}
	if ms.PrunedRecords == 0 {
		t.Errorf("PrunedRecords = 0, want > 0")
	}
	if ms.BytesNotMounted == 0 {
		t.Errorf("BytesNotMounted = 0, want > 0")
	}
	if ms.FilesMounted >= msOff.FilesMounted {
		t.Errorf("FilesMounted = %d, want < unpruned %d", ms.FilesMounted, msOff.FilesMounted)
	}
	if msOff.PrunedFiles != 0 {
		t.Errorf("unpruned engine reports PrunedFiles = %d", msOff.PrunedFiles)
	}
	if ra.Stats.FilesOfInterest >= rb.Stats.FilesOfInterest {
		t.Errorf("FilesOfInterest = %d, want < unpruned %d",
			ra.Stats.FilesOfInterest, rb.Stats.FilesOfInterest)
	}

	ps := on.PlannerStats()
	if ps.PrunedFiles != 2 || ps.BytesNotMounted == 0 {
		t.Errorf("PlannerStats = %+v, want PrunedFiles 2 and bytes saved", ps)
	}

	// Pruning is a proof from the frozen Qf result, not a heuristic: a
	// second engine reaches the same decisions, counter for counter.
	again := openEngine(t, m.Dir, Options{Mode: ModeALi})
	rc, err := again.Query(pruneQuery)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Stats.Mounts.FilesMounted != ms.FilesMounted || again.PlannerStats() != ps {
		t.Errorf("second run: %d mounts, %+v; first run: %d mounts, %+v",
			rc.Stats.Mounts.FilesMounted, again.PlannerStats(), ms.FilesMounted, ps)
	}
}

// TestStatsPlanningHonestAdmission pins admission sizing: query1's file
// has one span-surviving record out of four, so the mount must be
// admitted well under the whole-file worst case.
func TestStatsPlanningHonestAdmission(t *testing.T) {
	m := testRepo(t)
	on := openEngine(t, m.Dir, Options{Mode: ModeALi})
	res, err := on.Query(query1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Mounts.AdmissionBytesSaved <= 0 {
		t.Errorf("AdmissionBytesSaved = %d, want > 0 (1 of 4 records survives the span)",
			res.Stats.Mounts.AdmissionBytesSaved)
	}
	if got := on.PlannerStats().AdmissionBytesSaved; got <= 0 {
		t.Errorf("PlannerStats().AdmissionBytesSaved = %d, want > 0", got)
	}

	off := openEngine(t, m.Dir, Options{Mode: ModeALi, StatsPlanning: StatsPlanningOff})
	resOff, err := off.Query(query1)
	if err != nil {
		t.Fatal(err)
	}
	if resOff.Stats.Mounts.AdmissionBytesSaved != 0 {
		t.Errorf("unpruned AdmissionBytesSaved = %d, want 0", resOff.Stats.Mounts.AdmissionBytesSaved)
	}
	if res.Format(0) != resOff.Format(0) {
		t.Errorf("answers differ under honest admission:\non:\n%s\noff:\n%s",
			res.Format(0), resOff.Format(0))
	}
}

// TestStatsPlanningValuePrune warms the derived store by mounting a
// file, then issues a query whose value predicate every observed record
// summary provably fails: the planner must answer without mounting at
// all, identically to the unpruned engine.
func TestStatsPlanningValuePrune(t *testing.T) {
	m := testRepo(t)
	on := openEngine(t, m.Dir, Options{Mode: ModeALi, EnableDerived: true})
	off := openEngine(t, m.Dir, Options{Mode: ModeALi, EnableDerived: true, StatsPlanning: StatsPlanningOff})

	warm := `SELECT COUNT(*) FROM F JOIN R ON F.uri = R.uri
		JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
		WHERE F.station = 'ISK' AND F.channel = 'BHE'
		AND R.start_time > '2010-01-12T00:00:00.000'
		AND R.start_time < '2010-01-12T23:59:59.999';`
	impossible := `SELECT COUNT(*) AS n FROM F JOIN R ON F.uri = R.uri
		JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
		WHERE F.station = 'ISK' AND F.channel = 'BHE'
		AND R.start_time > '2010-01-12T00:00:00.000'
		AND R.start_time < '2010-01-12T23:59:59.999'
		AND D.sample_value > 1000000000.0;`

	for _, e := range []*Engine{on, off} {
		if _, err := e.Query(warm); err != nil {
			t.Fatal(err)
		}
	}
	ra, err := on.Query(impossible)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := off.Query(impossible)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Format(0) != rb.Format(0) {
		t.Fatalf("value-pruned answer differs:\non:\n%s\noff:\n%s", ra.Format(0), rb.Format(0))
	}
	// Both engines answer the impossible query from derived metadata or
	// pruning; the planner path must report the file as pruned when the
	// derived shortcut did not already answer it.
	if !ra.Stats.AnsweredFromDerived {
		if ra.Stats.Mounts.PrunedFiles == 0 {
			t.Errorf("PrunedFiles = 0, want > 0 (every record summary excludes the value)")
		}
		if ra.Stats.Mounts.FilesMounted != 0 {
			t.Errorf("FilesMounted = %d, want 0", ra.Stats.Mounts.FilesMounted)
		}
	}
}

// TestStatsPlanningModeString covers the flag's display form.
func TestStatsPlanningModeString(t *testing.T) {
	if s := fmt.Sprint(StatsPlanningOn); s != "on" {
		t.Errorf("StatsPlanningOn = %q", s)
	}
	if s := fmt.Sprint(StatsPlanningOff); s != "off" {
		t.Errorf("StatsPlanningOff = %q", s)
	}
}
