// Package benchutil is the paper's evaluation: dataset scales, the
// cold/hot measurement protocol of Figure 3, the size accounting of
// Table 1 and the §4–§5 ablations, printed by cmd/bench. Per-mechanism
// numbers are the repo's benchmark (benchmark/README.md), not this.
package benchutil

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/repo"
	"repro/internal/unit"
)

// Query1 is the paper's Figure 2 verbatim: the short-term-average task.
const Query1 = `SELECT AVG(D.sample_value)
FROM F JOIN R ON F.uri = R.uri
JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
WHERE F.station = 'ISK' AND F.channel = 'BHE'
AND R.start_time > '2010-01-12T00:00:00.000'
AND R.start_time < '2010-01-12T23:59:59.999'
AND D.sample_time > '2010-01-12T22:15:00.000'
AND D.sample_time < '2010-01-12T22:15:02.000';`

// Query2 has the same FROM clause but retrieves a waveform piece from
// all channels at station ISK (paper §4: data of interest is a lot
// larger than Query 1's).
const Query2 = `SELECT D.sample_time, D.sample_value
FROM F JOIN R ON F.uri = R.uri
JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
WHERE F.station = 'ISK'
AND R.start_time > '2010-01-12T00:00:00.000'
AND R.start_time < '2010-01-12T23:59:59.999'
AND D.sample_time > '2010-01-12T22:15:00.000'
AND D.sample_time < '2010-01-12T22:15:02.000';`

// Scale is a dataset size. The paper uses 5000 files with 175,765
// records and 660 M samples; our scales keep the same per-file shape
// (≈35 records/file, ≈3750 samples/record at full scale) at laptop-
// friendly sizes.
type Scale struct {
	Name             string
	Stations         int // of repo.DefaultStations (max 8)
	Channels         int // of BHE/BHN/BHZ
	Days             int
	RecordsPerFile   int
	SamplesPerRecord int
}

// Files returns the file count of the scale.
func (s Scale) Files() int { return s.Stations * s.Channels * s.Days }

// Samples returns the total sample count.
func (s Scale) Samples() int64 {
	return int64(s.Files()) * int64(s.RecordsPerFile) * int64(s.SamplesPerRecord)
}

// Predefined scales. Tiny is for tests and CI, Small the default,
// Medium for the headline numbers (README.md, "Reproducing the paper's
// evaluation").
var (
	Tiny   = Scale{Name: "tiny", Stations: 2, Channels: 2, Days: 13, RecordsPerFile: 4, SamplesPerRecord: 500}
	Small  = Scale{Name: "small", Stations: 4, Channels: 3, Days: 14, RecordsPerFile: 8, SamplesPerRecord: 2000}
	Medium = Scale{Name: "medium", Stations: 8, Channels: 3, Days: 21, RecordsPerFile: 16, SamplesPerRecord: 4000}
)

// ScaleByName resolves a scale name; "" means Small, and an unknown name
// is an error rather than a silent default.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "tiny":
		return Tiny, nil
	case "small", "":
		return Small, nil
	case "medium":
		return Medium, nil
	}
	return Scale{}, fmt.Errorf("unknown scale %q; valid scales: tiny, small, medium", name)
}

// BuildRepo generates (once) a repository for the scale under baseDir
// and returns its manifest. Repeated calls with the same arguments reuse
// the generated files (generation is deterministic).
func BuildRepo(baseDir string, sc Scale) (*repo.Manifest, error) {
	dir := filepath.Join(baseDir, "repo-"+sc.Name)
	if _, err := os.Stat(dir); err == nil {
		m, err := repo.Scan(dir)
		if err == nil && len(m.Files) == sc.Files() {
			return m, nil
		}
		os.RemoveAll(dir)
	}
	spec := repo.DefaultSpec(dir)
	spec.Stations = spec.Stations[:sc.Stations]
	spec.Channels = spec.Channels[:sc.Channels]
	spec.Days = sc.Days
	spec.RecordsPerFile = sc.RecordsPerFile
	spec.SamplesPerRecord = sc.SamplesPerRecord
	// Place each file's coverage window so the paper's literal
	// 22:15:00-22:15:02 query window falls inside it at every scale: the
	// window end minus three quarters of the coverage duration.
	coverage := time.Duration(float64(sc.RecordsPerFile*sc.SamplesPerRecord) /
		spec.SampleRate * float64(time.Second))
	windowEnd := 22*time.Hour + 15*time.Minute + 2*time.Second
	off := windowEnd - coverage*3/4
	if off < 0 {
		off = 0
	}
	spec.DayOffset = off
	return repo.Generate(spec)
}

// OpenEngine opens a fresh engine over the repository in a new DB dir.
func OpenEngine(m *repo.Manifest, baseDir string, opts core.Options) (*core.Engine, error) {
	dbDir, err := os.MkdirTemp(baseDir, "db-")
	if err != nil {
		return nil, err
	}
	opts.RepoDir = m.Dir
	opts.DBDir = dbDir
	return core.Open(opts)
}

// Measurement is one timed query run: wall time plus modeled I/O.
type Measurement struct {
	Wall         time.Duration
	Modeled      time.Duration // wall + virtual disk time
	Rows         int
	FilesMounted int // by the last run
}

// RunCold measures a query under the cold protocol: buffer pool flushed
// (and, for ALi, the ingestion cache cleared) before each of n runs;
// results are averaged — "average execution times of three identical
// runs" (paper §4).
func RunCold(e *core.Engine, query string, n int) (Measurement, error) {
	var total Measurement
	for i := 0; i < n; i++ {
		e.FlushCold()
		e.Cache().Clear()
		m, err := runOnce(e, query)
		if err != nil {
			return Measurement{}, err
		}
		total.Wall += m.Wall
		total.Modeled += m.Modeled
		total.Rows = m.Rows
		total.FilesMounted = m.FilesMounted
	}
	total.Wall /= time.Duration(n)
	total.Modeled /= time.Duration(n)
	return total, nil
}

// RunHot measures a query under the hot protocol: one warm-up run, then
// n measured runs with all buffers pre-loaded.
func RunHot(e *core.Engine, query string, n int) (Measurement, error) {
	if _, err := runOnce(e, query); err != nil {
		return Measurement{}, err
	}
	var total Measurement
	for i := 0; i < n; i++ {
		m, err := runOnce(e, query)
		if err != nil {
			return Measurement{}, err
		}
		total.Wall += m.Wall
		total.Modeled += m.Modeled
		total.Rows = m.Rows
		total.FilesMounted = m.FilesMounted
	}
	total.Wall /= time.Duration(n)
	total.Modeled /= time.Duration(n)
	return total, nil
}

func runOnce(e *core.Engine, query string) (Measurement, error) {
	ioBefore := e.Clock().Elapsed()
	start := time.Now()
	res, err := e.Query(query)
	if err != nil {
		return Measurement{}, err
	}
	wall := time.Since(start)
	return Measurement{
		Wall:         wall,
		Modeled:      wall + (e.Clock().Elapsed() - ioBefore),
		Rows:         res.Rows(),
		FilesMounted: res.Stats.Mounts.FilesMounted,
	}, nil
}

// FormatBytes renders a byte count with a binary-unit suffix.
func FormatBytes(n int64) string { return unit.FormatBytes(n) }

// Ratio renders a "/" ratio guarding against division by zero.
func Ratio(a, b time.Duration) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(a)/float64(b))
}
