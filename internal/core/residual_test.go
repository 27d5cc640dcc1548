package core

import (
	"testing"

	"repro/internal/cache"
)

// The ISK/BHE file of 2010-01-12 holds 3200 samples from 22:14:00.000 on;
// the strict 22:14–22:16 window keeps all but the first.
const windowRows = `SELECT D.sample_time, D.sample_value
FROM F JOIN R ON F.uri = R.uri
JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
WHERE F.station = 'ISK' AND F.channel = 'BHE'
AND D.sample_time > '2010-01-12T22:14:00.000'
AND D.sample_time < '2010-01-12T22:16:00.000'`

const dayCount = `SELECT COUNT(*)
FROM F JOIN R ON F.uri = R.uri
JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
WHERE F.station = 'ISK' AND F.channel = 'BHE'
AND R.start_time > '2010-01-12T00:00:00.000'
AND R.start_time < '2010-01-12T23:59:59.999'`

// TestTupleGranularEntryCoversItsSpan: a tuple-granular entry claims a
// span of the file, so it must hold every row of that span — not only
// the rows that passed whatever else the warming query filtered on. Each
// warmer's predicate says more than its span; the plain window probed
// afterwards is served from the warmed entry and must match a cacheless
// engine row for row.
func TestTupleGranularEntryCoversItsSpan(t *testing.T) {
	m := testRepo(t)
	plain := openEngine(t, m.Dir, Options{Mode: ModeALi})
	wantRes, err := plain.Query(windowRows)
	if err != nil {
		t.Fatal(err)
	}
	want := resultValues(wantRes)
	if wantRes.Rows() != 3199 {
		t.Fatalf("reference window has %d rows, want 3199", wantRes.Rows())
	}

	warmers := map[string]string{
		"value predicate":   windowRows + ` AND D.sample_value > 1000000`,
		"OR on sample_time": windowRows + ` AND (D.sample_time < '2010-01-12T22:15:00.000' OR D.sample_time > '2010-01-12T22:16:00.000')`,
		"OR only": `SELECT D.sample_time, D.sample_value
FROM F JOIN R ON F.uri = R.uri
JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
WHERE F.station = 'ISK' AND F.channel = 'BHE'
AND (D.sample_time < '2010-01-12T22:15:00.000' OR D.sample_time > '2010-01-12T22:16:00.000')`,
	}
	for name, warmer := range warmers {
		t.Run(name, func(t *testing.T) {
			e := openEngine(t, m.Dir, Options{
				Mode:  ModeALi,
				Cache: cache.Config{Policy: cache.LRU, Granularity: cache.TupleGranular},
			})
			warm, err := e.Query(warmer)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Stats.Mounts.FilesMounted == 0 {
				t.Fatal("warmer mounted nothing")
			}
			wantWarm, err := plain.Query(warmer)
			if err != nil {
				t.Fatal(err)
			}
			assertSameValues(t, "warmer", resultValues(wantWarm), resultValues(warm))

			got, err := e.Query(windowRows)
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats.Mounts.FilesMounted != 0 || got.Stats.Mounts.CacheHits == 0 {
				t.Fatalf("probe did not run from the tuple cache: %+v", got.Stats.Mounts)
			}
			if got.Rows() != wantRes.Rows() {
				t.Errorf("cached window has %d rows, want %d", got.Rows(), wantRes.Rows())
			}
			assertSameValues(t, "probe", want, resultValues(got))
		})
	}
}

// TestDerivedShortcutNeedsAPureSpan: the derived-metadata shortcut
// answers from per-record summaries clipped to the predicate's span, so
// it may only fire when the span is all the predicate says. <> and OR
// mention nothing but the span column and still are not a span.
func TestDerivedShortcutNeedsAPureSpan(t *testing.T) {
	m := testRepo(t)
	plain := openEngine(t, m.Dir, Options{Mode: ModeALi})
	e := openEngine(t, m.Dir, Options{Mode: ModeALi, EnableDerived: true})
	// Summarize every record of the file, so the shortcut has what it needs.
	if _, err := e.Query(dayCount); err != nil {
		t.Fatal(err)
	}
	pure, err := e.Query(dayCount + ` AND D.sample_time >= '2010-01-12T22:14:00.000'`)
	if err != nil {
		t.Fatal(err)
	}
	if !pure.Stats.AnsweredFromDerived || pure.Value(0, 0).AsInt() != 3200 {
		t.Fatalf("pure span: derived=%v count=%d, want the shortcut and 3200",
			pure.Stats.AnsweredFromDerived, pure.Value(0, 0).AsInt())
	}

	for name, c := range map[string]struct {
		extra string
		want  int64
	}{
		"<> on the span column": {` AND D.sample_time <> '2010-01-12T22:15:00.000'`, 3199},
		"OR on the span column": {` AND (D.sample_time < '2010-01-12T22:15:00.000' OR D.sample_time > '2010-01-12T22:16:00.000')`, 2400},
	} {
		t.Run(name, func(t *testing.T) {
			want, err := plain.Query(dayCount + c.extra)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Query(dayCount + c.extra)
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats.AnsweredFromDerived {
				t.Error("answered from derived metadata despite a residual predicate")
			}
			if g, w := got.Value(0, 0).AsInt(), want.Value(0, 0).AsInt(); g != w || w != c.want {
				t.Errorf("count = %d, cacheless engine says %d, want %d", g, w, c.want)
			}
		})
	}
}
