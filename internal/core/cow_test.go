package core

import (
	"testing"

	"repro/internal/vector"
)

// wideCowQuery touches every station over a week: many files of
// interest, so the Qf result is replayed once per file by one-file
// ingestion rounds.
const wideCowQuery = `SELECT AVG(D.sample_value)
FROM F JOIN R ON F.uri = R.uri
JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
WHERE R.start_time > '2010-01-01T00:00:00.000'
AND R.start_time < '2010-01-08T00:00:00.000'`

// TestPerFileQfReplayIsO1Copies pins the acceptance criterion of the
// copy-on-write refactor: replaying a shared Qf result across K files
// performs O(1) deep copies in total, not one per file — the one-file
// rounds of ProceedIncremental read O(1) shares of the frozen stage-one
// result.
func TestPerFileQfReplayIsO1Copies(t *testing.T) {
	m := testRepo(t)
	for _, par := range []int{1, 4} {
		e := openEngine(t, m.Dir, Options{Mode: ModeALi, Parallelism: par})
		p, err := e.Prepare(wideCowQuery)
		if err != nil {
			t.Fatal(err)
		}
		bp, err := p.Stage1()
		if err != nil {
			t.Fatal(err)
		}
		files := len(bp.FilesOfInterest())
		if files < 4 {
			t.Fatalf("parallelism %d: only %d files of interest; the test needs a wide query", par, files)
		}
		before := vector.CowCopies()
		res, err := bp.ProceedIncremental(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		copies := vector.CowCopies() - before
		if copies >= int64(files) {
			t.Errorf("parallelism %d: stage two performed %d CoW copies over %d files — sharing degenerated to one copy per file",
				par, copies, files)
		}
		if copies > 2 {
			t.Errorf("parallelism %d: stage two performed %d CoW copies, want O(1)", par, copies)
		}
		if res.Rows() != 1 {
			t.Fatalf("parallelism %d: rows = %d", par, res.Rows())
		}
	}
}
