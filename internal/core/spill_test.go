package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/vector"
)

// spillOpts configures out-of-core execution aggressively: any replay
// buffer spills after its first batch, and the mount budget is far
// smaller than one decoded file, so only early admission release lets
// concurrent mounts make progress.
func spillOpts(dir string, par int) Options {
	return Options{
		Mode:                ModeALi,
		Parallelism:         par,
		MountBudgetBytes:    512,
		SpillDir:            dir,
		SpillThresholdBytes: 1,
	}
}

// TestSpillDifferentialByteIdentical is the tentpole's correctness pin:
// with flight spilling forced on (threshold 1 byte, budget smaller than
// any decoded file) every query answer is byte-identical to a spill-off
// engine's, at serial and parallel mount scheduling, cold and hot — and
// the spilling engine really did go out of core.
func TestSpillDifferentialByteIdentical(t *testing.T) {
	m := testRepo(t)
	for _, par := range []int{1, 8} {
		plain := openEngine(t, m.Dir, Options{Mode: ModeALi, Parallelism: par})
		spill := openEngine(t, m.Dir, spillOpts(t.TempDir(), par))
		for _, q := range []string{query1, query2} {
			for _, cold := range []bool{true, false} {
				want := queryAllValues(t, plain, q, cold)
				got := queryAllValues(t, spill, q, cold)
				assertSameValues(t, q[:20], want, got)
			}
		}
		// Whether a cursor ever reads a spilled prefix back depends on how
		// the leader and its cursor are scheduled; mountsvc's
		// TestFlightSpillsOverThreshold pins replay with a gated late joiner.
		st := spill.MountService().Stats()
		if st.SpilledFlights == 0 || st.SpilledBytes == 0 {
			t.Fatalf("parallelism %d: spilling engine never spilled: %+v", par, st)
		}
		if st.InFlightBytes != 0 || st.ReplayBytes != 0 {
			t.Fatalf("parallelism %d: gauges not drained: %+v", par, st)
		}
		// Temp flight spill files never outlive their flights.
		ents, err := os.ReadDir(filepath.Join(spill.opts.SpillDir, "flights"))
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 0 {
			t.Fatalf("parallelism %d: leaked flight spill files: %v", par, ents)
		}
	}
}

// TestSpillCompletesMountOverBudgetPeak pins the out-of-core point
// directly: a query whose window pulls every record of each file
// streams multiple record-aligned batches per flight, and with spilling
// the resident replay peak stays strictly below what each flight
// decoded in total — the buffer lived on disk, not in memory.
func TestSpillCompletesMountOverBudgetPeak(t *testing.T) {
	m := testRepo(t)
	// A window covering every record of the day's files.
	wide := `SELECT D.sample_time, D.sample_value
FROM F JOIN R ON F.uri = R.uri
JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
WHERE F.station = 'ISK'
AND R.start_time > '2010-01-12T00:00:00.000'
AND R.start_time < '2010-01-12T23:59:59.999'
AND D.sample_time > '2010-01-12T00:00:00.000'
AND D.sample_time < '2010-01-12T23:59:59.999'`
	// Batches smaller than a record stream record-aligned: four appends
	// per file instead of one, so spilling between appends matters.
	so := spillOpts(t.TempDir(), 1)
	so.BatchSize = 256
	spill := openEngine(t, m.Dir, so)
	queryAllValues(t, spill, wide, true)
	st := spill.MountService().Stats()
	if st.SpilledFlights == 0 || st.SpilledBytes == 0 {
		t.Fatalf("wide query never spilled: %+v", st)
	}
	if st.PeakReplayBytes == 0 {
		t.Fatal("replay peak not tracked")
	}
	// Threshold 1 flushes after every append: resident replay never held
	// more than a batch or two of the multi-batch flights, so the peak
	// sits strictly below even a single flight's total decoded bytes.
	perFlight := st.SpilledBytes / st.SpilledFlights
	if st.PeakReplayBytes >= perFlight {
		t.Fatalf("resident peak %d not bounded below per-flight decoded bytes %d",
			st.PeakReplayBytes, perFlight)
	}
}

// TestRestartWarmsResultCache is the persistence contract end to end:
// Close persists the result cache under the spill dir; a new Engine
// over the same DBDir+SpillDir serves the repeat query from the
// disk-warmed cache — zero files mounted, byte-identical answer.
func TestRestartWarmsResultCache(t *testing.T) {
	m := testRepo(t)
	dbDir := filepath.Join(t.TempDir(), "db")
	spillDir := t.TempDir()
	opts := spillOpts(spillDir, 0)
	opts.DBDir = dbDir
	opts.ResultCacheBytes = -1

	eng := openEngine(t, m.Dir, opts)
	cold, err := eng.Query(query1)
	if err != nil {
		t.Fatal(err)
	}
	coldText := cold.Format(0)
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	eng2 := openEngine(t, m.Dir, opts)
	if st := eng2.ResultCache().Stats(); st.WarmedFromDisk == 0 {
		t.Fatalf("reopened cache warmed nothing: %+v", st)
	}
	warm, err := eng2.Query(query1)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.ServedFromResultCache {
		t.Fatal("post-restart repeat query re-executed instead of serving from disk-warmed cache")
	}
	if warm.Stats.Mounts.FilesMounted != 0 {
		t.Fatalf("post-restart repeat query mounted %d files, want 0", warm.Stats.Mounts.FilesMounted)
	}
	if warm.Format(0) != coldText {
		t.Fatalf("warmed result differs:\npre-restart:\n%s\npost-restart:\n%s", coldText, warm.Format(0))
	}
}

// TestRestartIgnoresCorruptSpillState: truncated entry files and a
// garbage manifest must never fail Open or a query — the engine falls
// back to re-executing, with the same answer.
func TestRestartIgnoresCorruptSpillState(t *testing.T) {
	m := testRepo(t)
	dbDir := filepath.Join(t.TempDir(), "db")
	spillDir := t.TempDir()
	opts := spillOpts(spillDir, 0)
	opts.DBDir = dbDir
	opts.ResultCacheBytes = -1

	eng := openEngine(t, m.Dir, opts)
	cold, err := eng.Query(query1)
	if err != nil {
		t.Fatal(err)
	}
	coldText := cold.Format(0)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Truncate every persisted result file.
	results := filepath.Join(spillDir, "results")
	ents, err := os.ReadDir(results)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if ok, _ := filepath.Match("result-*.spill", de.Name()); ok {
			if err := os.Truncate(filepath.Join(results, de.Name()), 7); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng2 := openEngine(t, m.Dir, opts)
	res, err := eng2.Query(query1)
	if err != nil {
		t.Fatalf("query over truncated spill state: %v", err)
	}
	if res.Stats.ServedFromResultCache {
		t.Fatal("truncated entry was served")
	}
	if res.Format(0) != coldText {
		t.Fatalf("re-executed result differs from original:\n%s\nvs\n%s", coldText, res.Format(0))
	}
	eng2.Close()

	// Garbage manifest: cold but functional.
	if err := os.WriteFile(filepath.Join(results, "manifest.json"), []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	eng3 := openEngine(t, m.Dir, opts)
	res3, err := eng3.Query(query1)
	if err != nil {
		t.Fatalf("query over corrupt manifest: %v", err)
	}
	if res3.Format(0) != coldText {
		t.Fatal("answer changed after corrupt-manifest cold start")
	}
}

// TestSpillCancellationMidFlight: queries cancelled at varying points
// while their flights are spilling must neither wedge the engine nor
// leak budget bytes or temp files, and a clean query afterwards gets
// the right answer.
func TestSpillCancellationMidFlight(t *testing.T) {
	m := testRepo(t)
	spillDir := t.TempDir()
	eng := openEngine(t, m.Dir, spillOpts(spillDir, 2))
	plain := openEngine(t, m.Dir, Options{Mode: ModeALi})
	want := queryAllValues(t, plain, query2, true)

	for i := 0; i < 6; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		if i%2 == 0 {
			cancel() // before the mounts
		} else {
			time.AfterFunc(time.Duration(i)*2*time.Millisecond, cancel)
		}
		eng.FlushCold()
		eng.Cache().Clear()
		_, err := eng.QueryAs(ctx, "cancel-prone", query2)
		cancel()
		// Either outcome is fine; the invariants below are not.
		_ = err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := eng.MountService().Stats()
		ents, err := os.ReadDir(filepath.Join(spillDir, "flights"))
		if err != nil {
			t.Fatal(err)
		}
		if st.InFlightBytes == 0 && st.ReplayBytes == 0 && len(ents) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancellation leaked: stats %+v, files %v", st, ents)
		}
		time.Sleep(time.Millisecond)
	}
	got := queryAllValues(t, eng, query2, true)
	assertSameValues(t, "after cancellations", want, got)
}

var _ = vector.KindInt64 // keep the import if assertions change shape

// TestSpillFailureCountedAndHarmless: with the spill directory gone
// before a query whose flight crosses the threshold, the flight keeps its
// replay buffer in memory, the answer is unchanged, and the failure is
// counted once — the degradation is no longer silent.
func TestSpillFailureCountedAndHarmless(t *testing.T) {
	m := testRepo(t)
	plain := openEngine(t, m.Dir, Options{Mode: ModeALi})
	dir := t.TempDir()
	spill := openEngine(t, m.Dir, spillOpts(dir, 1))
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	want := queryAllValues(t, plain, query1, true)
	got := queryAllValues(t, spill, query1, true)
	assertSameValues(t, "query1", want, got)
	st := spill.MountService().Stats()
	if st.SpillFailures != 1 || st.SpilledFlights != 0 {
		t.Fatalf("SpillFailures = %d, SpilledFlights = %d; want 1 and 0", st.SpillFailures, st.SpilledFlights)
	}
	if st.InFlightBytes != 0 || st.ReplayBytes != 0 {
		t.Fatalf("gauges not drained: %+v", st)
	}
}
