package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/repo"
	"repro/internal/seismic"
	"repro/internal/vector"
)

// spillOpts bounds flight windows aggressively: every window is over
// its threshold after its first batch, and the mount budget is far
// smaller than one decoded file, so only admission given back as
// batches leave the window lets concurrent mounts make progress. dir is
// the result cache's disk tier; flights never write to it.
func spillOpts(dir string, par int) Options {
	return Options{
		Mode:                ModeALi,
		Parallelism:         par,
		MountBudgetBytes:    512,
		SpillDir:            dir,
		SpillThresholdBytes: 1,
	}
}

// flightBytes is the smallest total a flight over one of the
// repository's files decodes: the sum of the batches a full mount
// streams.
func flightBytes(t *testing.T, m *repo.Manifest) int64 {
	t.Helper()
	ad := seismic.NewAdapter()
	least := int64(-1)
	for _, f := range m.Files {
		var n int64
		err := ad.MountStream(filepath.Join(m.Dir, f.URI), f.URI, nil, 0, func(b *vector.Batch) error {
			n += b.Bytes()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if least < 0 || n < least {
			least = n
		}
	}
	return least
}

// assertWindowed checks what a window-bounded engine must show after
// queries that ran one at a time: the resident replay peak below what
// one flight decodes (the window, not the whole file, was resident),
// both gauges drained and no flight directory under SpillDir.
func assertWindowed(t *testing.T, label string, e *Engine, perFlight int64) {
	t.Helper()
	st := e.MountService().Stats()
	if st.PeakReplayBytes == 0 || st.PeakReplayBytes >= perFlight {
		t.Fatalf("%s: resident peak %d not in (0, per-flight decoded bytes %d)", label, st.PeakReplayBytes, perFlight)
	}
	if st.InFlightBytes != 0 || st.ReplayBytes != 0 {
		t.Fatalf("%s: gauges not drained: %+v", label, st)
	}
	assertNoFlightFiles(t, label, e)
}

// assertNoFlightFiles fails if a flights directory exists under
// SpillDir: flights never touch disk.
func assertNoFlightFiles(t *testing.T, label string, e *Engine) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(e.opts.SpillDir, "flights")); !os.IsNotExist(err) {
		t.Fatalf("%s: flights directory under SpillDir (stat: %v)", label, err)
	}
}

// TestSpillDifferentialByteIdentical is the window's correctness pin:
// with every flight window over its threshold (1 byte, budget smaller
// than any decoded file) every query answer is byte-identical to a
// plain engine's, at serial and parallel mount scheduling, cold and hot.
func TestSpillDifferentialByteIdentical(t *testing.T) {
	m := testRepo(t)
	perFlight := flightBytes(t, m)
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
		assertWindowed(t, fmt.Sprintf("parallelism %d", par), spill, perFlight)
	}
}

// TestSpillCompletesMountOverBudgetPeak pins the out-of-core point
// directly: a query whose window pulls every record of each file
// streams multiple batches per flight through a budget smaller than one
// file, with the same answer as a plain engine, and the resident replay
// peak stays strictly below what a flight decoded in total — the window
// lived in memory, not the file.
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
	so := spillOpts(t.TempDir(), 1)
	so.BatchSize = 256
	spill := openEngine(t, m.Dir, so)
	plain := openEngine(t, m.Dir, Options{Mode: ModeALi, Parallelism: 1, BatchSize: 256})
	assertSameValues(t, "wide", queryAllValues(t, plain, wide, true), queryAllValues(t, spill, wide, true))
	// Threshold 1 parks the extractor after every append until the query
	// has read the batch, so resident replay never held more than a
	// batch or two of the multi-batch flights.
	assertWindowed(t, "wide query", spill, flightBytes(t, m))
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
// while their flights' windows are over the threshold (extractors
// parked on the query's cursors) must neither wedge the engine nor
// leak budget bytes, and a clean query afterwards gets the right
// answer.
func TestSpillCancellationMidFlight(t *testing.T) {
	m := testRepo(t)
	eng := openEngine(t, m.Dir, spillOpts(t.TempDir(), 2))
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
		if st.InFlightBytes == 0 && st.ReplayBytes == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancellation leaked: stats %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	got := queryAllValues(t, eng, query2, true)
	assertSameValues(t, "after cancellations", want, got)
}

// TestSpillFailureCountedAndHarmless: a window threshold needs no
// SpillDir. An engine with one and no directory opens, answers
// byte-identically to a plain engine and drains both gauges.
func TestSpillFailureCountedAndHarmless(t *testing.T) {
	m := testRepo(t)
	plain := openEngine(t, m.Dir, Options{Mode: ModeALi})
	windowed := openEngine(t, m.Dir, spillOpts("", 1))
	want := queryAllValues(t, plain, query1, true)
	got := queryAllValues(t, windowed, query1, true)
	assertSameValues(t, "query1", want, got)
	if st := windowed.MountService().Stats(); st.InFlightBytes != 0 || st.ReplayBytes != 0 || st.PeakReplayBytes == 0 {
		t.Fatalf("gauges: %+v, want a nonzero peak and both drained", st)
	}
}

// TestSpillWindowConcurrentClients is the clients_spill shape: K
// concurrent clients scanning a 3-file hot set on a sequential engine
// whose mount budget fits one and a half files and whose window
// threshold is one byte. Joiners arrive mid-file (re-mounting their
// prefix while the extractor waits for them), and every cursor parks its
// extractor. Every run must finish, every answer must be byte-identical
// to a plain engine's, and afterwards both gauges are zero and no
// flight directory exists.
func TestSpillWindowConcurrentClients(t *testing.T) {
	m := testRepo(t)
	var scans []string
	var fileBytes int64
	for _, f := range m.Files {
		if f.Station != "ISK" || f.Year != 2010 || f.DayOfYear != 12 {
			continue
		}
		fileBytes = max(fileBytes, f.SizeBytes)
		scans = append(scans, fmt.Sprintf(`SELECT COUNT(*), SUM(D.sample_value), MIN(D.sample_value), MAX(D.sample_time)
FROM F JOIN R ON F.uri = R.uri
JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
WHERE F.station = 'ISK' AND F.channel = '%s'
AND R.start_time > '2010-01-12T00:00:00.000'
AND R.start_time < '2010-01-12T23:59:59.999'
AND D.sample_time > '2010-01-12T00:00:00.000'
AND D.sample_time < '2010-01-12T23:59:59.999'`, f.Channel))
	}
	if len(scans) != 3 {
		t.Fatalf("hot set has %d files, want 3", len(scans))
	}
	plain := openEngine(t, m.Dir, Options{Mode: ModeALi, Parallelism: 1})
	want := make([][]vector.Value, len(scans))
	for i, q := range scans {
		want[i] = queryAllValues(t, plain, q, true)
	}
	e := openEngine(t, m.Dir, Options{
		Mode: ModeALi, Parallelism: 1, MountBudgetBytes: fileBytes * 3 / 2,
		SpillDir: t.TempDir(), SpillThresholdBytes: 1,
	})
	const clients, rounds = 6, 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (c + r) % len(scans)
				res, err := e.QueryAs(context.Background(), fmt.Sprintf("client-%d", c), scans[i])
				if err != nil {
					errs <- err
					return
				}
				got := resultValues(res)
				if len(got) != len(want[i]) {
					errs <- fmt.Errorf("client %d scan %d: %d values, want %d", c, i, len(got), len(want[i]))
					return
				}
				for k := range got {
					if vector.Compare(got[k], want[i][k]) != 0 {
						errs <- fmt.Errorf("client %d scan %d: value %d is %v, want %v", c, i, k, got[k], want[i][k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := e.MountService().Stats()
	if st.InFlightBytes != 0 || st.ReplayBytes != 0 {
		t.Fatalf("gauges not drained: %+v", st)
	}
	assertNoFlightFiles(t, "clients", e)
	t.Logf("flights %d, joins %d, peak replay %d B", st.FlightsStarted, st.SingleFlightHits, st.PeakReplayBytes)
}
