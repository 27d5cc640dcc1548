package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/vector"
)

// scanWideQuery is the benchmark's scan_wide shape: whole-file aggregates
// over every channel of one station-day, every sample through the join.
const scanWideQuery = `SELECT AVG(D.sample_value), MIN(D.sample_value), MAX(D.sample_value), COUNT(*)
FROM F JOIN R ON F.uri = R.uri
JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
WHERE F.station = 'ISK'
AND R.start_time > '2010-01-12T00:00:00.000'
AND R.start_time < '2010-01-12T23:59:59.999';`

// TestConstKeysNeverExpand: mounted D carries uri and record_id as Const
// columns, and on the scan_wide and zoom_cold query shapes (query1 and
// query2 are the latter's aggregate and projection classes) nothing in
// the ALi engine writes them out — not the join probe, the filters, the
// spill frames, the ingestion cache or derived metadata — while the
// answers equal the Ei engine's, whose column files hold no Const.
func TestConstKeysNeverExpand(t *testing.T) {
	m := testRepo(t)
	ref := openEngine(t, m.Dir, Options{Mode: ModeEi})
	spilling := spillOpts(t.TempDir(), 2)
	cached := Options{Mode: ModeALi, Parallelism: 2, EnableDerived: true,
		Cache: cache.Config{Policy: cache.LRU, Granularity: cache.FileGranular}}
	for name, opts := range map[string]Options{
		"plain":    {Mode: ModeALi, Parallelism: 2},
		"spilling": spilling,
		"cached":   cached,
	} {
		ali := openEngine(t, m.Dir, opts)
		for _, q := range []string{scanWideQuery, query1, query2} {
			for _, cold := range []bool{true, false} {
				want := queryAllValues(t, ref, q, cold)
				before := vector.ConstExpansions()
				got := queryAllValues(t, ali, q, cold)
				if d := vector.ConstExpansions() - before; d != 0 {
					t.Errorf("%s cold=%v %.30q: %d Const expansions", name, cold, q, d)
				}
				assertSameValues(t, name+" "+q[:30], want, got)
			}
		}
	}
}
