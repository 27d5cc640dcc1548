package core

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/mseed"
	"repro/internal/repo"
	"repro/internal/vector"
)

// query1 is the paper's Figure 2, verbatim.
const query1 = `SELECT AVG(D.sample_value)
FROM F JOIN R ON F.uri = R.uri
JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
WHERE F.station = 'ISK' AND F.channel = 'BHE'
AND R.start_time > '2010-01-12T00:00:00.000'
AND R.start_time < '2010-01-12T23:59:59.999'
AND D.sample_time > '2010-01-12T22:15:00.000'
AND D.sample_time < '2010-01-12T22:15:02.000';`

// query2 retrieves a waveform window from all channels of a station.
const query2 = `SELECT D.sample_time, D.sample_value
FROM F JOIN R ON F.uri = R.uri
JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
WHERE F.station = 'ISK'
AND R.start_time > '2010-01-12T00:00:00.000'
AND R.start_time < '2010-01-12T23:59:59.999'
AND D.sample_time > '2010-01-12T22:15:00.000'
AND D.sample_time < '2010-01-12T22:15:02.000';`

// testRepo generates a small repository once per test binary.
func testRepo(t *testing.T) *repo.Manifest {
	t.Helper()
	dir := t.TempDir()
	spec := repo.DefaultSpec(dir)
	spec.Stations = spec.Stations[:3] // ISK, ANTO, APE
	spec.Days = 13                    // covers 2010-01-12
	spec.RecordsPerFile = 4
	spec.SamplesPerRecord = 800
	// 4 x 800 samples at 40 Hz = 80 s of coverage per file; start at
	// 22:14 so the paper's literal 22:15:00-22:15:02 window is inside.
	spec.DayOffset = 22*time.Hour + 14*time.Minute
	m, err := repo.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func openEngine(t *testing.T, repoDir string, opts Options) *Engine {
	t.Helper()
	opts.RepoDir = repoDir
	if opts.DBDir == "" {
		opts.DBDir = filepath.Join(t.TempDir(), "db")
	}
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// expectedQuery1 computes Query 1's answer straight from the repository
// files, bypassing the engine entirely.
func expectedQuery1(t *testing.T, m *repo.Manifest) (float64, int) {
	t.Helper()
	lo := time.Date(2010, 1, 12, 22, 15, 0, 0, time.UTC).UnixNano()
	hi := time.Date(2010, 1, 12, 22, 15, 2, 0, time.UTC).UnixNano()
	var sum float64
	var n int
	for _, f := range m.Files {
		if f.Station != "ISK" || f.Channel != "BHE" || f.DayOfYear != 12 {
			continue
		}
		recs, err := mseed.ReadFile(m.Path(f.URI))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			for i, s := range r.Samples {
				ts := r.Header.SampleTime(i)
				if ts > lo && ts < hi {
					sum += float64(s)
					n++
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("test repository has no samples in the Query 1 window")
	}
	return sum / float64(n), n
}

func TestQuery1ALiMatchesGroundTruth(t *testing.T) {
	m := testRepo(t)
	want, wantRows := expectedQuery1(t, m)
	e := openEngine(t, m.Dir, Options{Mode: ModeALi})

	res, err := e.Query(query1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows() != 1 {
		t.Fatalf("rows = %d, want 1", res.Rows())
	}
	got := res.Float(0, 0)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("AVG = %v, want %v", got, want)
	}
	// Exactly one file is of interest (ISK/BHE/day 12).
	if res.Stats.FilesOfInterest != 1 {
		t.Errorf("files of interest = %d, want 1", res.Stats.FilesOfInterest)
	}
	if res.Stats.Mounts.FilesMounted != 1 {
		t.Errorf("mounted %d files, want 1", res.Stats.Mounts.FilesMounted)
	}
	// σ∘mount should have pruned records outside 22:15:00-22:15:02.
	if res.Stats.Mounts.RecordsPruned == 0 {
		t.Error("no records pruned by the fused selection")
	}
	_ = wantRows
}

func TestQuery1EiMatchesALi(t *testing.T) {
	m := testRepo(t)
	ali := openEngine(t, m.Dir, Options{Mode: ModeALi})
	ei := openEngine(t, m.Dir, Options{Mode: ModeEi})

	aliRes, err := ali.Query(query1)
	if err != nil {
		t.Fatal(err)
	}
	eiRes, err := ei.Query(query1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(aliRes.Float(0, 0)-eiRes.Float(0, 0)) > 1e-9 {
		t.Errorf("ALi AVG %v != Ei AVG %v", aliRes.Float(0, 0), eiRes.Float(0, 0))
	}
}

func TestQuery2BothModes(t *testing.T) {
	m := testRepo(t)
	ali := openEngine(t, m.Dir, Options{Mode: ModeALi})
	ei := openEngine(t, m.Dir, Options{Mode: ModeEi})

	aliRes, err := ali.Query(query2)
	if err != nil {
		t.Fatal(err)
	}
	eiRes, err := ei.Query(query2)
	if err != nil {
		t.Fatal(err)
	}
	if aliRes.Rows() == 0 {
		t.Fatal("Query 2 returned no rows")
	}
	if aliRes.Rows() != eiRes.Rows() {
		t.Fatalf("ALi %d rows != Ei %d rows", aliRes.Rows(), eiRes.Rows())
	}
	// Query 2 touches all three channels of ISK: 3 files of interest.
	if aliRes.Stats.FilesOfInterest != 3 {
		t.Errorf("files of interest = %d, want 3", aliRes.Stats.FilesOfInterest)
	}
	// Row-level agreement: sum both value columns.
	sum := func(r *Result) float64 {
		var s float64
		for _, b := range r.Mat.Batches {
			for _, v := range b.Cols[1].Float64s() {
				s += v
			}
		}
		return s
	}
	if math.Abs(sum(aliRes)-sum(eiRes)) > 1e-6 {
		t.Error("Query 2 values disagree across modes")
	}
}

func TestMetadataOnlyQueryNeverMounts(t *testing.T) {
	m := testRepo(t)
	e := openEngine(t, m.Dir, Options{Mode: ModeALi})
	res, err := e.Query(`SELECT station, COUNT(*) AS files FROM F GROUP BY station ORDER BY station`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.MetadataOnly {
		t.Error("metadata-only query not recognized")
	}
	if res.Stats.Mounts.FilesMounted != 0 {
		t.Error("metadata-only query mounted files")
	}
	if res.Rows() != 3 {
		t.Errorf("rows = %d, want 3 stations", res.Rows())
	}
	// 3 channels x 13 days = 39 files per station.
	if got := res.Value(0, 1).I; got != 39 {
		t.Errorf("files per station = %d, want 39", got)
	}
}

func TestEmptyFilesOfInterestSkipsIngestion(t *testing.T) {
	m := testRepo(t)
	e := openEngine(t, m.Dir, Options{Mode: ModeALi})
	res, err := e.Query(`SELECT AVG(D.sample_value)
		FROM F JOIN R ON F.uri = R.uri
		JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
		WHERE F.station = 'NOPE'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FilesOfInterest != 0 || res.Stats.Mounts.FilesMounted != 0 {
		t.Errorf("best case violated: %d files of interest, %d mounted",
			res.Stats.FilesOfInterest, res.Stats.Mounts.FilesMounted)
	}
	if !res.Stats.Estimate.Empty {
		t.Error("estimate should mark the result empty")
	}
}

func TestBreakpointAbort(t *testing.T) {
	m := testRepo(t)
	e := openEngine(t, m.Dir, Options{Mode: ModeALi})
	p, err := e.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := p.Stage1()
	if err != nil {
		t.Fatal(err)
	}
	if bp.Done() {
		t.Fatal("Query 1 should pause at the breakpoint")
	}
	if len(bp.FilesOfInterest()) != 1 {
		t.Errorf("breakpoint files = %v", bp.FilesOfInterest())
	}
	if bp.Est.Files != 1 || bp.Est.EstRows == 0 || bp.Est.BytesToMount == 0 {
		t.Errorf("estimate incomplete: %+v", bp.Est)
	}
	// Aborting here simply means not calling Proceed: nothing was mounted.
}

func TestEstimatePredictsRows(t *testing.T) {
	m := testRepo(t)
	_, wantRows := expectedQuery1(t, m)
	e := openEngine(t, m.Dir, Options{Mode: ModeALi})
	p, _ := e.Prepare(query1)
	bp, err := p.Stage1()
	if err != nil {
		t.Fatal(err)
	}
	est := bp.Est.EstRows
	if est < int64(wantRows)/3 || est > int64(wantRows)*3 {
		t.Errorf("estimated %d rows, actual %d: off by more than 3x", est, wantRows)
	}
}

func TestIngestionGapALiVsEi(t *testing.T) {
	m := testRepo(t)
	ali := openEngine(t, m.Dir, Options{Mode: ModeALi})
	ei := openEngine(t, m.Dir, Options{Mode: ModeEi})

	aliUp := ali.Report().Wall + ali.Report().ModeledIO
	eiUp := ei.Report().Wall + ei.Report().ModeledIO
	if aliUp*2 >= eiUp {
		t.Errorf("up-front ingestion: ALi %v should be far below Ei %v", aliUp, eiUp)
	}
	// Storage gap: metadata-only DB must be much smaller.
	if ali.Store().SizeOnDisk()*4 >= ei.Store().SizeOnDisk() {
		t.Errorf("storage: ALi %d bytes should be far below Ei %d bytes",
			ali.Store().SizeOnDisk(), ei.Store().SizeOnDisk())
	}
	if ei.IndexBytes() == 0 {
		t.Error("Ei built no indexes")
	}
	if ali.IndexBytes() != 0 {
		t.Error("ALi should build no indexes")
	}
}

func TestCachingAvoidsRemount(t *testing.T) {
	m := testRepo(t)
	e := openEngine(t, m.Dir, Options{
		Mode:  ModeALi,
		Cache: cache.Config{Policy: cache.LRU, Granularity: cache.FileGranular},
	})
	r1, err := e.Query(query1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.Mounts.FilesMounted != 1 {
		t.Fatalf("first run mounted %d files", r1.Stats.Mounts.FilesMounted)
	}
	r2, err := e.Query(query1)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.Mounts.FilesMounted != 0 {
		t.Errorf("second run mounted %d files, want 0 (cache)", r2.Stats.Mounts.FilesMounted)
	}
	if r2.Stats.Mounts.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", r2.Stats.Mounts.CacheHits)
	}
	if math.Abs(r1.Float(0, 0)-r2.Float(0, 0)) > 1e-9 {
		t.Error("cached answer differs")
	}
}

func TestTupleGranularCacheContainment(t *testing.T) {
	m := testRepo(t)
	e := openEngine(t, m.Dir, Options{
		Mode:  ModeALi,
		Cache: cache.Config{Policy: cache.LRU, Granularity: cache.TupleGranular},
	})
	if _, err := e.Query(query1); err != nil {
		t.Fatal(err)
	}
	// Same window again: served from tuple cache.
	r2, err := e.Query(query1)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.Mounts.FilesMounted != 0 {
		t.Errorf("identical window remounted %d files", r2.Stats.Mounts.FilesMounted)
	}
	// Wider window: tuple cache insufficient, must remount the whole file.
	wide := `SELECT AVG(D.sample_value)
	FROM F JOIN R ON F.uri = R.uri
	JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
	WHERE F.station = 'ISK' AND F.channel = 'BHE'
	AND R.start_time > '2010-01-12T00:00:00.000'
	AND R.start_time < '2010-01-12T23:59:59.999'
	AND D.sample_time > '2010-01-12T22:14:00.000'
	AND D.sample_time < '2010-01-12T22:16:00.000'`
	r3, err := e.Query(wide)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Stats.Mounts.FilesMounted != 1 {
		t.Errorf("widened window should force a remount, mounted %d", r3.Stats.Mounts.FilesMounted)
	}
}

func TestDerivedMetadataAnswersSecondQuery(t *testing.T) {
	m := testRepo(t)
	e := openEngine(t, m.Dir, Options{Mode: ModeALi, EnableDerived: true})
	// Full-record query: the whole day's records for ISK/BHE.
	full := `SELECT AVG(D.sample_value)
	FROM F JOIN R ON F.uri = R.uri
	JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
	WHERE F.station = 'ISK' AND F.channel = 'BHE'
	AND R.start_time > '2010-01-12T00:00:00.000'
	AND R.start_time < '2010-01-12T23:59:59.999'`
	r1, err := e.Query(full)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.AnsweredFromDerived {
		t.Fatal("first query cannot be answered from derived metadata")
	}
	if e.Derived().Len() == 0 {
		t.Fatal("mount did not derive metadata")
	}
	r2, err := e.Query(full)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Stats.AnsweredFromDerived {
		t.Error("repeat summary query should be answered from derived metadata")
	}
	if r2.Stats.Mounts.FilesMounted != 0 {
		t.Error("derived answer should not mount")
	}
	if math.Abs(r1.Float(0, 0)-r2.Float(0, 0)) > 1e-9 {
		t.Errorf("derived answer %v != mounted answer %v", r2.Float(0, 0), r1.Float(0, 0))
	}
}

func TestColdVsHotALi(t *testing.T) {
	m := testRepo(t)
	e := openEngine(t, m.Dir, Options{Mode: ModeALi})
	e.FlushCold()
	e.Clock().Reset()
	if _, err := e.Query(query1); err != nil {
		t.Fatal(err)
	}
	cold := e.Clock().Elapsed()

	e.Clock().Reset()
	if _, err := e.Query(query1); err != nil {
		t.Fatal(err)
	}
	hot := e.Clock().Elapsed()
	if cold == 0 {
		t.Error("cold run charged no modeled I/O")
	}
	// Hot still pays the mount (NeverCache), but not metadata I/O.
	if hot > cold {
		t.Errorf("hot %v > cold %v", hot, cold)
	}
}

func TestQueryNoMetadataWorstCase(t *testing.T) {
	m := testRepo(t)
	e := openEngine(t, m.Dir, Options{Mode: ModeALi})
	res, err := e.Query(`SELECT COUNT(*) FROM D`)
	if err != nil {
		t.Fatal(err)
	}
	// Worst case: every repository file is mounted.
	if res.Stats.Mounts.FilesMounted != len(e.RepoFiles()) {
		t.Errorf("mounted %d files, want all %d", res.Stats.Mounts.FilesMounted, len(e.RepoFiles()))
	}
	wantSamples := int64(3 * 3 * 13 * 4 * 800)
	if got := res.Value(0, 0).I; got != wantSamples {
		t.Errorf("COUNT(*) = %d, want %d", got, wantSamples)
	}
}

func TestPlanStringShowsStages(t *testing.T) {
	m := testRepo(t)
	e := openEngine(t, m.Dir, Options{Mode: ModeALi})
	p, err := e.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	s := p.PlanString()
	for _, want := range []string{"Qf", "Qs", "result-scan", "scan[metadata] F"} {
		if !contains(s, want) {
			t.Errorf("plan string missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestEiIndexJoinIsUsed(t *testing.T) {
	m := testRepo(t)
	ei := openEngine(t, m.Dir, Options{Mode: ModeEi})
	ei.FlushCold()
	before := ei.Pool().Stats().SeeksPayed
	if _, err := ei.Query(query1); err != nil {
		t.Fatal(err)
	}
	// Cold Ei must pay random I/O (index probes + row fetches).
	if seeks := ei.Pool().Stats().SeeksPayed - before; seeks < 3 {
		t.Errorf("cold Ei payed only %d seeks; index join apparently unused", seeks)
	}
}

func TestReopenPersistedALiDatabase(t *testing.T) {
	m := testRepo(t)
	dbDir := filepath.Join(t.TempDir(), "db")
	e1 := openEngine(t, m.Dir, Options{Mode: ModeALi, DBDir: dbDir})
	r1, err := e1.Query(query1)
	if err != nil {
		t.Fatal(err)
	}
	e1.Close()
	e2 := openEngine(t, m.Dir, Options{Mode: ModeALi, DBDir: dbDir})
	if e2.Report().Metadata.Files != 0 {
		t.Error("reopen should not re-ingest metadata")
	}
	r2, err := e2.Query(query1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.Float(0, 0)-r2.Float(0, 0)) > 1e-9 {
		t.Error("answer changed after reopen")
	}
}

// TestOpenRejectsUnhonouredOptions pins that Open fails on an option it
// cannot honour instead of silently dropping it, and still opens the
// neighbouring combinations it can.
func TestOpenRejectsUnhonouredOptions(t *testing.T) {
	m := testRepo(t)
	spill := t.TempDir()
	for _, tc := range []struct {
		name string
		opts Options
		want string // error substring; "" means Open must succeed
	}{
		{"subsumption without cache", Options{ResultCacheSubsumption: true}, "ResultCacheBytes"},
		{"spill threshold without dir", Options{SpillThresholdBytes: 1}, "SpillDir"},
		{"subsumption with cache", Options{ResultCacheSubsumption: true, ResultCacheBytes: -1}, ""},
		{"spill threshold with dir", Options{SpillThresholdBytes: 1, SpillDir: spill}, ""},
		{"spill threshold off without dir", Options{SpillThresholdBytes: -1}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.RepoDir = m.Dir
			tc.opts.DBDir = filepath.Join(t.TempDir(), "db")
			e, err := Open(tc.opts)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				e.Close()
				return
			}
			if err == nil {
				e.Close()
				t.Fatalf("Open accepted %+v", tc.opts)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Open error %q does not name %s", err, tc.want)
			}
		})
	}
}

func TestModeledIOAccounting(t *testing.T) {
	m := testRepo(t)
	e := openEngine(t, m.Dir, Options{Mode: ModeALi})
	res, err := e.Query(query1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Stage2IO == 0 {
		t.Error("mount charged no modeled I/O")
	}
	if res.Stats.Modeled() <= res.Stats.TotalWall {
		t.Error("Modeled() should add I/O on top of wall time")
	}
	_ = vector.KindInt64
}

func TestProceedIncrementalMatchesFull(t *testing.T) {
	m := testRepo(t)
	q := `SELECT AVG(D.sample_value)
	FROM F JOIN R ON F.uri = R.uri
	JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
	WHERE F.station = 'ISK'
	AND R.start_time > '2010-01-12T00:00:00.000'
	AND R.start_time < '2010-01-12T23:59:59.999'
	AND D.sample_time > '2010-01-12T22:15:00.000'
	AND D.sample_time < '2010-01-12T22:15:02.000'`

	full := openEngine(t, m.Dir, Options{Mode: ModeALi})
	want, err := full.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	inc := openEngine(t, m.Dir, Options{Mode: ModeALi})
	p, err := inc.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := p.Stage1()
	if err != nil {
		t.Fatal(err)
	}
	var rounds []Partial
	res, err := bp.ProceedIncremental(1, func(pt Partial) bool {
		rounds = append(rounds, pt)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 channels at ISK = 3 files of interest = 3 ingestion rounds.
	if len(rounds) != 3 {
		t.Fatalf("rounds = %d, want 3", len(rounds))
	}
	if rounds[0].FilesProcessed != 1 || rounds[2].FilesProcessed != 3 || rounds[2].FilesTotal != 3 {
		t.Errorf("round progress wrong: %+v", rounds)
	}
	if res.Stats.StoppedEarly {
		t.Error("not stopped, but marked stopped")
	}
	if math.Abs(res.Float(0, 0)-want.Float(0, 0)) > 1e-9 {
		t.Errorf("incremental %v != bulk %v", res.Float(0, 0), want.Float(0, 0))
	}
	// Partial values must converge to the final answer.
	if math.Abs(rounds[2].Values[0].AsFloat()-want.Float(0, 0)) > 1e-9 {
		t.Error("last partial != final answer")
	}
}

func TestProceedIncrementalEarlyStop(t *testing.T) {
	m := testRepo(t)
	e := openEngine(t, m.Dir, Options{Mode: ModeALi})
	q := `SELECT COUNT(*)
	FROM F JOIN R ON F.uri = R.uri
	JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
	WHERE F.station = 'ISK'
	AND R.start_time > '2010-01-12T00:00:00.000'
	AND R.start_time < '2010-01-12T23:59:59.999'`
	p, _ := e.Prepare(q)
	bp, err := p.Stage1()
	if err != nil {
		t.Fatal(err)
	}
	res, err := bp.ProceedIncremental(1, func(pt Partial) bool {
		return pt.FilesProcessed < 2 // stop after the second file
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.StoppedEarly {
		t.Fatal("early stop not recorded")
	}
	// 2 of 3 files x 4 records x 800 samples.
	if got := res.Value(0, 0).I; got != 2*4*800 {
		t.Errorf("partial COUNT = %d, want %d", got, 2*4*800)
	}
	if res.Stats.Mounts.FilesMounted != 2 {
		t.Errorf("mounted %d files after early stop, want 2", res.Stats.Mounts.FilesMounted)
	}
}

func TestProceedIncrementalNonAggregate(t *testing.T) {
	m := testRepo(t)
	e := openEngine(t, m.Dir, Options{Mode: ModeALi})
	p, _ := e.Prepare(query2)
	bp, err := p.Stage1()
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	res, err := bp.ProceedIncremental(1, func(pt Partial) bool {
		calls++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("non-aggregate plans should make one callback, got %d", calls)
	}
	if res.Rows() == 0 {
		t.Error("no rows from fallback execution")
	}
}
