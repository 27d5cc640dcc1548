package core

import (
	"testing"

	"repro/internal/vector"
)

// queryAllValues flattens a result into its scalar values, row-major.
func queryAllValues(t *testing.T, e *Engine, q string, cold bool) []vector.Value {
	t.Helper()
	if cold {
		e.FlushCold()
		e.Cache().Clear()
	}
	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	return resultValues(res)
}

func resultValues(res *Result) []vector.Value {
	var out []vector.Value
	for _, b := range res.Mat.Batches {
		for r := 0; r < b.Len(); r++ {
			for _, c := range b.Cols {
				out = append(out, c.Get(r))
			}
		}
	}
	return out
}

func assertSameValues(t *testing.T, label string, want, got []vector.Value) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d values vs %d", label, len(want), len(got))
	}
	for i := range want {
		if vector.Compare(want[i], got[i]) != 0 {
			t.Fatalf("%s: value %d differs: %v vs %v", label, i, want[i], got[i])
		}
	}
}

// TestParallelismDeterministic runs the paper's two queries cold and
// hot at parallelism 1 vs 8 — ingestion, the mount scheduler and the
// second stage must produce identical results.
func TestParallelismDeterministic(t *testing.T) {
	m := testRepo(t)
	for _, mode := range []Mode{ModeALi, ModeEi} {
		seq := openEngine(t, m.Dir, Options{Mode: mode, Parallelism: 1})
		par := openEngine(t, m.Dir, Options{Mode: mode, Parallelism: 8})
		for _, q := range []string{query1, query2} {
			for _, cold := range []bool{true, false} {
				want := queryAllValues(t, seq, q, cold)
				got := queryAllValues(t, par, q, cold)
				assertSameValues(t, mode.String()+"/"+q[:20], want, got)
			}
		}
	}
}

// TestParallelIngestReportMatches checks the parallel ingestion reports
// the same file/record/byte accounting as the sequential load.
func TestParallelIngestReportMatches(t *testing.T) {
	m := testRepo(t)
	seq := openEngine(t, m.Dir, Options{Mode: ModeEi, Parallelism: 1})
	par := openEngine(t, m.Dir, Options{Mode: ModeEi, Parallelism: 8})
	a, b := seq.Report(), par.Report()
	if a.Metadata.Files != b.Metadata.Files || a.Metadata.Records != b.Metadata.Records {
		t.Fatalf("metadata accounting differs: %+v vs %+v", a.Metadata, b.Metadata)
	}
	if a.Eager.DataRows != b.Eager.DataRows || a.Eager.RepoBytes != b.Eager.RepoBytes {
		t.Fatalf("eager accounting differs: rows %d vs %d, bytes %d vs %d",
			a.Eager.DataRows, b.Eager.DataRows, a.Eager.RepoBytes, b.Eager.RepoBytes)
	}
	if a.Eager.DataBytes != b.Eager.DataBytes {
		t.Fatalf("stored bytes differ: %d vs %d", a.Eager.DataBytes, b.Eager.DataBytes)
	}
}

// TestParallelMountStats checks mount statistics are complete (not
// torn) when the scheduler runs 8-wide.
func TestParallelMountStats(t *testing.T) {
	m := testRepo(t)
	seq := openEngine(t, m.Dir, Options{Mode: ModeALi, Parallelism: 1})
	par := openEngine(t, m.Dir, Options{Mode: ModeALi, Parallelism: 8})
	resSeq, err := seq.Query(query2)
	if err != nil {
		t.Fatal(err)
	}
	resPar, err := par.Query(query2)
	if err != nil {
		t.Fatal(err)
	}
	if resSeq.Stats.Mounts.FilesMounted != resPar.Stats.Mounts.FilesMounted ||
		resSeq.Stats.Mounts.RecordsMounted != resPar.Stats.Mounts.RecordsMounted ||
		resSeq.Stats.Mounts.BytesRead != resPar.Stats.Mounts.BytesRead {
		t.Fatalf("mount stats differ: %+v vs %+v", resSeq.Stats.Mounts, resPar.Stats.Mounts)
	}
}
