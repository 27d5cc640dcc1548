package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// subsumeOpts enables the result cache with semantic (subsumption)
// probing and no admission floor.
func subsumeOpts() Options {
	return resultCacheOpts(Options{Mode: ModeALi, ResultCacheSubsumption: true})
}

// windowQuery is the zooming projection query: a waveform window from
// one station, parameterized by the D.sample_time bounds. The test
// repository's coverage is [22:14:00, 22:15:20] on 2010-01-12.
func windowQuery(station, lo, hi string) string {
	return fmt.Sprintf(`SELECT D.sample_time, D.sample_value
FROM F JOIN R ON F.uri = R.uri
JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
WHERE F.station = '%s'
AND R.start_time > '2010-01-12T00:00:00.000'
AND R.start_time < '2010-01-12T23:59:59.999'
AND D.sample_time > '%s' AND D.sample_time < '%s'`, station, lo, hi)
}

// clock renders an offset in seconds from 22:14:00 as a query literal.
func clock(secs int) string {
	return time.Date(2010, 1, 12, 22, 14, 0, 0, time.UTC).
		Add(time.Duration(secs) * time.Second).Format("2006-01-02T15:04:05.000")
}

func TestSubsumptionServesNarrowerQuery(t *testing.T) {
	m := testRepo(t)
	eng := openEngine(t, m.Dir, subsumeOpts())
	cold := openEngine(t, m.Dir, Options{Mode: ModeALi})

	wideQ := windowQuery("ISK", clock(10), clock(70))
	narrowQ := windowQuery("ISK", clock(20), clock(60))

	wide, err := eng.Query(wideQ)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Stats.ServedFromResultCache || wide.Rows() == 0 {
		t.Fatalf("wide query must execute cold with rows, got served=%v rows=%d",
			wide.Stats.ServedFromResultCache, wide.Rows())
	}
	narrow, err := eng.Query(narrowQ)
	if err != nil {
		t.Fatal(err)
	}
	if !narrow.Stats.ServedBySubsumption || !narrow.Stats.ServedFromResultCache {
		t.Fatalf("nested window not served by subsumption: %+v", narrow.Stats)
	}
	if narrow.Stats.Mounts.FilesMounted != 0 {
		t.Fatalf("subsumption serve mounted %d files", narrow.Stats.Mounts.FilesMounted)
	}
	if narrow.Stats.Mounts.SubsumptionHits != 1 || narrow.Stats.Mounts.SubsumptionBytesSaved <= 0 {
		t.Fatalf("subsumption stats not attributed: %+v", narrow.Stats.Mounts)
	}
	if narrow.Stats.SubsumedFrom.IsZero() {
		t.Fatal("SubsumedFrom fingerprint not recorded")
	}
	ref, err := cold.Query(narrowQ)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Format(0) != narrow.Format(0) {
		t.Fatalf("subsumption-served answer differs from cold execution:\ncold:\n%s\nserved:\n%s",
			ref.Format(0), narrow.Format(0))
	}
	st := eng.ResultCache().Stats()
	if st.SubsumptionHits != 1 || st.SubsumptionBytesSaved <= 0 {
		t.Fatalf("cache subsumption stats = %+v", st)
	}

	// The slice was retained under the narrow query's own fingerprint:
	// its repetition is an exact hit, not another semantic probe.
	again, err := eng.Query(narrowQ)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Stats.ServedFromResultCache || again.Stats.ServedBySubsumption {
		t.Fatalf("narrow repeat must be an exact hit: %+v", again.Stats)
	}
	if eng.ResultCache().Stats().SubsumptionHits != 1 {
		t.Fatal("narrow repeat re-probed the semantic index")
	}

	// The explorer's Stage1/Proceed flow probes the semantic index too: a
	// still narrower window is answered at the breakpoint, before any
	// file is touched, and retained for its own repetition.
	innerQ := windowQuery("ISK", clock(30), clock(50))
	p, err := eng.Prepare(innerQ)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := p.Stage1()
	if err != nil {
		t.Fatal(err)
	}
	if !bp.Done() || !bp.Result().Stats.ServedBySubsumption || bp.Result().Stats.Mounts.FilesMounted != 0 {
		t.Fatalf("Stage1 did not answer the nested window by subsumption: done=%v", bp.Done())
	}
	if ref, err = cold.Query(innerQ); err != nil {
		t.Fatal(err)
	}
	if ref.Format(0) != bp.Result().Format(0) {
		t.Fatalf("Stage1 subsumption answer differs from cold execution:\ncold:\n%s\nserved:\n%s",
			ref.Format(0), bp.Result().Format(0))
	}
	if again, err = eng.Query(innerQ); err != nil {
		t.Fatal(err)
	}
	if !again.Stats.ServedFromResultCache || again.Stats.ServedBySubsumption {
		t.Fatalf("inner repeat must be an exact hit: %+v", again.Stats)
	}
}

func TestSubsumptionNeverServesAggregates(t *testing.T) {
	m := testRepo(t)
	eng := openEngine(t, m.Dir, subsumeOpts())
	agg := func(lo, hi string) string {
		return fmt.Sprintf(`SELECT AVG(D.sample_value)
FROM F JOIN R ON F.uri = R.uri
JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
WHERE F.station = 'ISK'
AND D.sample_time > '%s' AND D.sample_time < '%s'`, lo, hi)
	}
	if _, err := eng.Query(agg(clock(10), clock(70))); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(agg(clock(20), clock(60)))
	if err != nil {
		t.Fatal(err)
	}
	// Re-filtering a final aggregate is unsound: the narrower aggregate
	// must execute, never be served semantically.
	if res.Stats.ServedBySubsumption {
		t.Fatal("aggregate query served by subsumption")
	}
	if eng.ResultCache().Stats().SubsumptionHits != 0 {
		t.Fatal("semantic index hit for a row-collapsing plan")
	}
}

// TestSubsumptionDifferentialRandomized is the satellite's differential
// test: random zooming (and occasionally widening) windows over random
// stations, every answer pinned byte-identical to a cold engine's.
func TestSubsumptionDifferentialRandomized(t *testing.T) {
	m := testRepo(t)
	eng := openEngine(t, m.Dir, subsumeOpts())
	cold := openEngine(t, m.Dir, Options{Mode: ModeALi})
	rng := rand.New(rand.NewSource(11))
	stations := []string{"ISK", "ANTO", "APE"}

	served := 0
	for trial := 0; trial < 24; trial++ {
		lo := rng.Intn(70)
		hi := lo + 1 + rng.Intn(80-lo)
		q := windowQuery(stations[rng.Intn(len(stations))], clock(lo), clock(hi))
		got, err := eng.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Format(0) != want.Format(0) {
			t.Fatalf("trial %d (%s): answer diverged from cold execution\ncold:\n%s\ngot:\n%s",
				trial, q, want.Format(0), got.Format(0))
		}
		if got.Stats.ServedBySubsumption {
			served++
			if got.Stats.Mounts.FilesMounted != 0 {
				t.Fatalf("trial %d: subsumption serve mounted files", trial)
			}
		}
	}
	if served == 0 {
		t.Fatal("randomized zoom session never exercised the subsumption path")
	}
}

// TestSubsumptionEpochBumpMidProbe races concurrent subsumption-served
// queries against epoch-bump invalidations (NotifyFileChanged). The
// repository bytes never change, so every answer must stay identical to
// the cold reference — frozen CoW entries make a mid-probe bump safe —
// and under -race this doubles as the data-race check.
func TestSubsumptionEpochBumpMidProbe(t *testing.T) {
	m := testRepo(t)
	eng := openEngine(t, m.Dir, subsumeOpts())
	cold := openEngine(t, m.Dir, Options{Mode: ModeALi})

	wideQ := windowQuery("ISK", clock(0), clock(80))
	narrowQ := windowQuery("ISK", clock(20), clock(60))
	if _, err := eng.Query(wideQ); err != nil {
		t.Fatal(err)
	}
	want, err := cold.Query(narrowQ)
	if err != nil {
		t.Fatal(err)
	}
	ref := want.Format(0)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				res, err := eng.Query(narrowQ)
				if err != nil {
					errs <- err
					return
				}
				if res.Format(0) != ref {
					errs <- fmt.Errorf("answer diverged under invalidation churn")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			eng.NotifyFileChanged(m.Files[0].URI)
			// Re-warm the wide entry so later narrow queries can be served
			// either semantically or by full execution — both must agree.
			if _, err := eng.Query(wideQ); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
