package benchutil

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
)

// Table1 reproduces the paper's Table 1: dataset characteristics and the
// storage footprint of each ingestion approach.
type Table1 struct {
	Scale      Scale
	FRecords   int64 // files
	RRecords   int64 // records
	DRecords   int64 // samples
	MSEEDBytes int64 // compressed repository
	DBBytes    int64 // loaded column store, no indexes (paper: "MonetDB")
	KeyBytes   int64 // additional index bytes (paper: "+keys")
	ALiBytes   int64 // metadata-only footprint (paper: "ALi")
}

// String renders the table in the paper's layout.
func (t *Table1) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 1 — dataset and sizes (scale %s)\n", t.Scale.Name)
	fmt.Fprintf(&sb, "  records per table:        F=%d  R=%d  D=%d\n", t.FRecords, t.RRecords, t.DRecords)
	fmt.Fprintf(&sb, "  mSEED repository:         %s\n", FormatBytes(t.MSEEDBytes))
	fmt.Fprintf(&sb, "  column store (no keys):   %s  (%.1fx the repository)\n",
		FormatBytes(t.DBBytes), safeDiv(t.DBBytes, t.MSEEDBytes))
	fmt.Fprintf(&sb, "  +keys (index bytes):      %s  (%.2fx the column store)\n",
		FormatBytes(t.KeyBytes), safeDiv(t.KeyBytes, t.DBBytes))
	fmt.Fprintf(&sb, "  ALi (metadata only):      %s  (1/%.0f of the eager footprint)\n",
		FormatBytes(t.ALiBytes), safeDiv(t.DBBytes+t.KeyBytes, t.ALiBytes))
	return sb.String()
}

func safeDiv(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// ExperimentTable1 builds the repository at scale and loads it both ways
// to measure the four sizes of Table 1.
func ExperimentTable1(baseDir string, sc Scale) (*Table1, error) {
	m, err := BuildRepo(baseDir, sc)
	if err != nil {
		return nil, err
	}
	ei, err := OpenEngine(m, baseDir, core.Options{Mode: core.ModeEi})
	if err != nil {
		return nil, err
	}
	defer ei.Close()
	ali, err := OpenEngine(m, baseDir, core.Options{Mode: core.ModeALi})
	if err != nil {
		return nil, err
	}
	defer ali.Close()

	return &Table1{
		Scale:      sc,
		FRecords:   int64(len(m.Files)),
		RRecords:   m.Records,
		DRecords:   m.Samples,
		MSEEDBytes: m.Bytes,
		DBBytes:    ei.Store().SizeOnDisk(),
		KeyBytes:   ei.IndexBytes(),
		ALiBytes:   ali.Store().SizeOnDisk(),
	}, nil
}

// Figure3Cell is one bar of Figure 3.
type Figure3Cell struct {
	Query string // "Q1" or "Q2"
	Temp  string // "cold" or "hot"
	Mode  string // "Ei" or "ALi"
	Time  time.Duration
	Rows  int
}

// Figure3 reproduces the paper's Figure 3: Query 1 and Query 2 times for
// cold and hot runs under Ei and ALi (log scale in the paper; we report
// the modeled durations directly).
type Figure3 struct {
	Scale Scale
	Cells []Figure3Cell
}

// Get returns the cell for a (query, temperature, mode) triple.
func (f *Figure3) Get(query, temp, mode string) (Figure3Cell, bool) {
	for _, c := range f.Cells {
		if c.Query == query && c.Temp == temp && c.Mode == mode {
			return c, true
		}
	}
	return Figure3Cell{}, false
}

// String renders the figure as the series the paper plots.
func (f *Figure3) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 3 — querying %d files (scale %s), modeled time\n", f.Scale.Files(), f.Scale.Name)
	fmt.Fprintf(&sb, "  %-6s %-5s %-4s %12s %8s\n", "query", "temp", "mode", "time", "rows")
	for _, c := range f.Cells {
		fmt.Fprintf(&sb, "  %-6s %-5s %-4s %12s %8d\n",
			c.Query, c.Temp, c.Mode, c.Time.Round(time.Microsecond), c.Rows)
	}
	if q1c, ok := f.Get("Q1", "cold", "Ei"); ok {
		if q1a, ok2 := f.Get("Q1", "cold", "ALi"); ok2 {
			fmt.Fprintf(&sb, "  cold Q1: ALi beats Ei by %s\n", Ratio(q1c.Time, q1a.Time))
		}
	}
	if q2c, ok := f.Get("Q2", "hot", "Ei"); ok {
		if q2a, ok2 := f.Get("Q2", "hot", "ALi"); ok2 {
			fmt.Fprintf(&sb, "  hot Q2: ALi/Ei = %s (the paper expects ALi to fall behind as data of interest grows)\n",
				Ratio(q2a.Time, q2c.Time))
		}
	}
	return sb.String()
}

// ExperimentFigure3 runs both queries cold and hot under both engines.
func ExperimentFigure3(baseDir string, sc Scale, runs int) (*Figure3, error) {
	m, err := BuildRepo(baseDir, sc)
	if err != nil {
		return nil, err
	}
	out := &Figure3{Scale: sc}
	for _, mode := range []core.Mode{core.ModeEi, core.ModeALi} {
		eng, err := OpenEngine(m, baseDir, core.Options{Mode: mode})
		if err != nil {
			return nil, err
		}
		for _, q := range []struct {
			name, text string
		}{{"Q1", Query1}, {"Q2", Query2}} {
			cold, err := RunCold(eng, q.text, runs)
			if err != nil {
				eng.Close()
				return nil, fmt.Errorf("%s %s cold: %w", mode, q.name, err)
			}
			hot, err := RunHot(eng, q.text, runs)
			if err != nil {
				eng.Close()
				return nil, fmt.Errorf("%s %s hot: %w", mode, q.name, err)
			}
			out.Cells = append(out.Cells,
				Figure3Cell{Query: q.name, Temp: "cold", Mode: mode.String(), Time: cold.Modeled, Rows: cold.Rows},
				Figure3Cell{Query: q.name, Temp: "hot", Mode: mode.String(), Time: hot.Modeled, Rows: hot.Rows},
			)
		}
		eng.Close()
	}
	return out, nil
}

// Ingestion reproduces the paper's headline claim: up-front ingestion
// time reduced by orders of magnitude, plus the "index build takes four
// times longer than loading" observation.
type Ingestion struct {
	Scale        Scale
	ALiTime      time.Duration // metadata-only load (modeled)
	EiLoadTime   time.Duration // eager extract+decompress+store (modeled)
	EiIndexTime  time.Duration // PK/FK index build (modeled)
	IndexToLoad  float64       // EiIndexTime / EiLoadTime
	UpFrontRatio float64       // (EiLoad+EiIndex) / ALi
}

// String renders the ingestion comparison.
func (g *Ingestion) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Up-front ingestion (scale %s, %d files)\n", g.Scale.Name, g.Scale.Files())
	fmt.Fprintf(&sb, "  ALi metadata-only load:  %12s\n", g.ALiTime.Round(time.Microsecond))
	fmt.Fprintf(&sb, "  Ei eager load:           %12s\n", g.EiLoadTime.Round(time.Microsecond))
	fmt.Fprintf(&sb, "  Ei index build:          %12s  (%.1fx the load)\n",
		g.EiIndexTime.Round(time.Microsecond), g.IndexToLoad)
	fmt.Fprintf(&sb, "  data-to-insight gap:     Ei total is %.0fx ALi\n", g.UpFrontRatio)
	return sb.String()
}

// ExperimentIngestion measures both up-front paths.
func ExperimentIngestion(baseDir string, sc Scale) (*Ingestion, error) {
	m, err := BuildRepo(baseDir, sc)
	if err != nil {
		return nil, err
	}
	ali, err := OpenEngine(m, baseDir, core.Options{Mode: core.ModeALi})
	if err != nil {
		return nil, err
	}
	aliTime := ali.Report().Wall + ali.Report().ModeledIO
	ali.Close()

	ei, err := OpenEngine(m, baseDir, core.Options{Mode: core.ModeEi})
	if err != nil {
		return nil, err
	}
	rep := ei.Report().Eager
	ei.Close()
	if rep == nil {
		return nil, fmt.Errorf("benchutil: eager engine has no eager report")
	}
	load := rep.LoadWall + rep.LoadIO
	idx := rep.IndexWall + rep.IndexIO
	out := &Ingestion{
		Scale: sc, ALiTime: aliTime, EiLoadTime: load, EiIndexTime: idx,
	}
	if load > 0 {
		out.IndexToLoad = float64(idx) / float64(load)
	}
	if aliTime > 0 {
		out.UpFrontRatio = float64(load+idx) / float64(aliTime)
	}
	return out, nil
}

// SweepPoint is one selectivity step: how ALi's query time grows as the
// data of interest approaches the whole repository (the paper's worst
// case, where ALi converges to Ei's load).
type SweepPoint struct {
	Days            int
	FilesOfInterest int
	ALiTime         time.Duration
}

// Sweep is the selectivity experiment.
type Sweep struct {
	Scale      Scale
	EiLoadTime time.Duration
	Points     []SweepPoint
}

// String renders the sweep.
func (s *Sweep) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Selectivity sweep (scale %s): ALi vs data-of-interest size\n", s.Scale.Name)
	fmt.Fprintf(&sb, "  Ei eager load (asymptote): %s\n", s.EiLoadTime.Round(time.Microsecond))
	for _, p := range s.Points {
		fmt.Fprintf(&sb, "  days=%-3d files=%-5d ALi=%12s (%.0f%% of Ei load)\n",
			p.Days, p.FilesOfInterest, p.ALiTime.Round(time.Microsecond),
			100*float64(p.ALiTime)/float64(s.EiLoadTime))
	}
	return sb.String()
}

// sweepQuery widens Query 1's day window to cover k days and all
// stations/channels, growing the files of interest.
func sweepQuery(days int) string {
	end := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, days)
	return fmt.Sprintf(`SELECT AVG(D.sample_value)
FROM F JOIN R ON F.uri = R.uri
JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
WHERE R.start_time > '2010-01-01T00:00:00.000'
AND R.start_time < '%s'`, end.Format("2006-01-02T15:04:05.000"))
}

// ExperimentSweep measures ALi at growing selectivity against the Ei
// load asymptote.
func ExperimentSweep(baseDir string, sc Scale, daySteps []int) (*Sweep, error) {
	m, err := BuildRepo(baseDir, sc)
	if err != nil {
		return nil, err
	}
	ei, err := OpenEngine(m, baseDir, core.Options{Mode: core.ModeEi})
	if err != nil {
		return nil, err
	}
	rep := ei.Report().Eager
	ei.Close()
	out := &Sweep{Scale: sc, EiLoadTime: rep.LoadWall + rep.LoadIO}

	ali, err := OpenEngine(m, baseDir, core.Options{Mode: core.ModeALi})
	if err != nil {
		return nil, err
	}
	defer ali.Close()
	for _, d := range daySteps {
		if d > sc.Days {
			d = sc.Days
		}
		ali.FlushCold()
		ioBefore := ali.Clock().Elapsed()
		start := time.Now()
		res, err := ali.Query(sweepQuery(d))
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, SweepPoint{
			Days:            d,
			FilesOfInterest: res.Stats.FilesOfInterest,
			ALiTime:         time.Since(start) + ali.Clock().Elapsed() - ioBefore,
		})
	}
	return out, nil
}

// CacheComparison is the cache-granularity ablation: an exploration
// session of overlapping zoom queries under each configuration.
type CacheComparison struct {
	Scale    Scale
	Sessions []CacheSession
}

// CacheSession is one configuration's outcome.
type CacheSession struct {
	Config       string
	FilesMounted int
	BytesRead    int64
	Time         time.Duration
}

// String renders the comparison.
func (c *CacheComparison) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Cache granularity ablation (scale %s): 4-query zoom and pan sessions\n", c.Scale.Name)
	for _, s := range c.Sessions {
		fmt.Fprintf(&sb, "  %-19s mounts=%-3d bytes=%-12s time=%s\n",
			s.Config, s.FilesMounted, FormatBytes(s.BytesRead), s.Time.Round(time.Microsecond))
	}
	return sb.String()
}

// zoomSession is the canonical exploration pattern: a quick look at a
// day, then three successive zoom-ins around an interesting point.
func zoomSession() []string {
	window := func(lo, hi string) string {
		return fmt.Sprintf(`SELECT AVG(D.sample_value)
FROM F JOIN R ON F.uri = R.uri
JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
WHERE F.station = 'ISK' AND F.channel = 'BHE'
AND R.start_time > '2010-01-12T00:00:00.000'
AND R.start_time < '2010-01-12T23:59:59.999'
AND D.sample_time > '%s' AND D.sample_time < '%s'`, lo, hi)
	}
	return []string{
		window("2010-01-12T22:10:00.000", "2010-01-12T22:40:00.000"),
		window("2010-01-12T22:14:00.000", "2010-01-12T22:20:00.000"),
		window("2010-01-12T22:15:00.000", "2010-01-12T22:16:00.000"),
		window("2010-01-12T22:15:00.000", "2010-01-12T22:15:02.000"),
	}
}

// ExperimentCacheGranularity runs the zoom session under no caching,
// file-granular and tuple-granular caching.
func ExperimentCacheGranularity(baseDir string, sc Scale) (*CacheComparison, error) {
	m, err := BuildRepo(baseDir, sc)
	if err != nil {
		return nil, err
	}
	configs := []struct {
		name string
		cfg  cache.Config
	}{
		{"no-cache", cache.Config{Policy: cache.NeverCache}},
		{"file-granular", cache.Config{Policy: cache.LRU, Granularity: cache.FileGranular}},
		{"tuple-granular", cache.Config{Policy: cache.LRU, Granularity: cache.TupleGranular}},
	}
	out := &CacheComparison{Scale: sc}
	sessions := []struct {
		name    string
		queries []string
	}{{"zoom", zoomSession()}, {"pan", panSession()}}
	for _, c := range configs {
		for _, sess := range sessions {
			eng, err := OpenEngine(m, baseDir, core.Options{Mode: core.ModeALi, Cache: c.cfg})
			if err != nil {
				return nil, err
			}
			var mounted int
			var bytes int64
			ioBefore := eng.Clock().Elapsed()
			start := time.Now()
			for _, q := range sess.queries {
				res, err := eng.Query(q)
				if err != nil {
					eng.Close()
					return nil, err
				}
				mounted += res.Stats.Mounts.FilesMounted
				bytes += res.Stats.Mounts.BytesRead
			}
			out.Sessions = append(out.Sessions, CacheSession{
				Config:       c.name + "/" + sess.name,
				FilesMounted: mounted,
				BytesRead:    bytes,
				Time:         time.Since(start) + eng.Clock().Elapsed() - ioBefore,
			})
			eng.Close()
		}
	}
	return out, nil
}

// DerivedComparison is the derived-metadata ablation (paper §5).
type DerivedComparison struct {
	Scale        Scale
	FirstRun     time.Duration // mounts, derives summaries
	RepeatNoDM   time.Duration // re-mounts everything
	RepeatWithDM time.Duration // answered from summaries
	// The same three runs free of wall time: the modeled I/O each was
	// charged and the files one repeat mounted.
	FirstRunIO, RepeatNoDMIO, RepeatWithDMIO time.Duration
	RepeatNoDMMounts, RepeatWithDMMounts     int
}

// String renders the comparison.
func (d *DerivedComparison) String() string {
	return fmt.Sprintf(
		"Derived metadata ablation (scale %s)\n  first run (mounts+derives): %12s\n  repeat without derived:     %12s\n  repeat with derived:        %12s\n",
		d.Scale.Name, d.FirstRun.Round(time.Microsecond),
		d.RepeatNoDM.Round(time.Microsecond), d.RepeatWithDM.Round(time.Microsecond))
}

// ExperimentDerived measures answering a repeated full-record summary
// query from derived metadata versus re-mounting.
func ExperimentDerived(baseDir string, sc Scale) (*DerivedComparison, error) {
	m, err := BuildRepo(baseDir, sc)
	if err != nil {
		return nil, err
	}
	q := `SELECT AVG(D.sample_value)
FROM F JOIN R ON F.uri = R.uri
JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
WHERE F.station = 'ISK' AND F.channel = 'BHE'
AND R.start_time > '2010-01-12T00:00:00.000'
AND R.start_time < '2010-01-12T23:59:59.999'`
	out := &DerivedComparison{Scale: sc}

	with, err := OpenEngine(m, baseDir, core.Options{Mode: core.ModeALi, EnableDerived: true})
	if err != nil {
		return nil, err
	}
	first, err := RunCold(with, q, 1)
	if err != nil {
		with.Close()
		return nil, err
	}
	out.FirstRun = first.Modeled
	out.FirstRunIO = first.Modeled - first.Wall
	repeat, err := RunHot(with, q, 3)
	if err != nil {
		with.Close()
		return nil, err
	}
	out.RepeatWithDM = repeat.Modeled
	out.RepeatWithDMMounts = repeat.FilesMounted
	out.RepeatWithDMIO = repeat.Modeled - repeat.Wall
	with.Close()

	without, err := OpenEngine(m, baseDir, core.Options{Mode: core.ModeALi})
	if err != nil {
		return nil, err
	}
	repeatNo, err := RunHot(without, q, 3)
	if err != nil {
		without.Close()
		return nil, err
	}
	out.RepeatNoDM = repeatNo.Modeled
	out.RepeatNoDMMounts = repeatNo.FilesMounted
	out.RepeatNoDMIO = repeatNo.Modeled - repeatNo.Wall
	without.Close()
	return out, nil
}

// panSession is the complementary exploration pattern: successive
// sideways pans over the same file. File-granular caching keeps serving
// from memory; tuple-granular caching must remount because each new
// window needs tuples outside the cached span — the paper's "we need to
// mount the whole file even if there is one required tuple missing".
func panSession() []string {
	window := func(lo, hi string) string {
		return fmt.Sprintf(`SELECT AVG(D.sample_value)
FROM F JOIN R ON F.uri = R.uri
JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
WHERE F.station = 'ISK' AND F.channel = 'BHE'
AND R.start_time > '2010-01-12T00:00:00.000'
AND R.start_time < '2010-01-12T23:59:59.999'
AND D.sample_time > '%s' AND D.sample_time < '%s'`, lo, hi)
	}
	return []string{
		window("2010-01-12T22:15:00.000", "2010-01-12T22:15:02.000"),
		window("2010-01-12T22:15:02.000", "2010-01-12T22:15:04.000"),
		window("2010-01-12T22:15:04.000", "2010-01-12T22:15:06.000"),
		window("2010-01-12T22:15:06.000", "2010-01-12T22:15:08.000"),
	}
}
