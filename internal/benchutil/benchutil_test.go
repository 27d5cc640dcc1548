package benchutil

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// These tests run the paper's experiments at tiny scale and assert the
// SHAPES the reproduction claims (README.md, "Reproducing the paper's
// evaluation"), so a regression in
// any headline result fails the test suite, not just the benchmarks.

func TestScaleSelection(t *testing.T) {
	for name, want := range map[string]string{"tiny": "tiny", "small": "small", "medium": "medium", "": "small"} {
		if sc, err := ScaleByName(name); err != nil || sc.Name != want {
			t.Errorf("ScaleByName(%q) = %q, %v; want %q", name, sc.Name, err, want)
		}
	}
	_, err := ScaleByName("bogus")
	if err == nil || !strings.Contains(err.Error(), "tiny, small, medium") {
		t.Errorf("ScaleByName(bogus) error = %v, want one listing tiny, small, medium", err)
	}
	if Tiny.Files() != 2*2*13 || Tiny.Samples() != int64(Tiny.Files()*4*500) {
		t.Error("scale arithmetic wrong")
	}
}

func TestBuildRepoIsCached(t *testing.T) {
	dir := t.TempDir()
	m1, err := BuildRepo(dir, Tiny)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := BuildRepo(dir, Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Bytes != m2.Bytes || len(m1.Files) != len(m2.Files) {
		t.Error("cached rebuild differs")
	}
}

func TestTable1Shape(t *testing.T) {
	t1, err := ExperimentTable1(t.TempDir(), Tiny)
	if err != nil {
		t.Fatal(err)
	}
	// Paper shape: column store much larger than the compressed repo;
	// indexes a sizable fraction of the store; metadata-only footprint
	// orders of magnitude below the eager footprint.
	if t1.DBBytes < 5*t1.MSEEDBytes {
		t.Errorf("column store %d not ≫ repository %d", t1.DBBytes, t1.MSEEDBytes)
	}
	if t1.KeyBytes < t1.DBBytes/2 || t1.KeyBytes > t1.DBBytes {
		t.Errorf("index bytes %d out of the paper's ~0.7x store band (store %d)", t1.KeyBytes, t1.DBBytes)
	}
	if t1.ALiBytes*100 > t1.DBBytes+t1.KeyBytes {
		t.Errorf("metadata footprint %d not orders of magnitude below eager %d",
			t1.ALiBytes, t1.DBBytes+t1.KeyBytes)
	}
	if t1.FRecords != int64(Tiny.Files()) || t1.DRecords != Tiny.Samples() {
		t.Error("row counts wrong")
	}
	if t1.String() == "" {
		t.Error("empty rendering")
	}
}

func TestFigure3Shape(t *testing.T) {
	f3, err := ExperimentFigure3(t.TempDir(), Tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f3.Cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(f3.Cells))
	}
	for _, q := range []string{"Q1", "Q2"} {
		coldEi, _ := f3.Get(q, "cold", "Ei")
		coldALi, _ := f3.Get(q, "cold", "ALi")
		// Cold: ALi definitely outperforms Ei (paper Figure 3).
		if coldALi.Time >= coldEi.Time {
			t.Errorf("%s cold: ALi %v not faster than Ei %v", q, coldALi.Time, coldEi.Time)
		}
		hotEi, _ := f3.Get(q, "hot", "Ei")
		hotALi, _ := f3.Get(q, "hot", "ALi")
		// Hot: both must be far below their cold runs.
		if hotALi.Time*2 >= coldALi.Time || hotEi.Time*2 >= coldEi.Time {
			t.Errorf("%s hot runs not clearly below cold", q)
		}
	}
	// Query answers must not depend on the mode.
	a1, _ := f3.Get("Q1", "hot", "ALi")
	e1, _ := f3.Get("Q1", "hot", "Ei")
	if a1.Rows != e1.Rows {
		t.Errorf("Q1 rows differ across modes: %d vs %d", a1.Rows, e1.Rows)
	}
	if f3.String() == "" {
		t.Error("empty rendering")
	}
}

func TestIngestionShape(t *testing.T) {
	g, err := ExperimentIngestion(t.TempDir(), Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if g.ALiTime <= 0 || g.EiLoadTime <= 0 || g.EiIndexTime <= 0 {
		t.Fatalf("times missing: %+v", g)
	}
	// The data-to-insight gap: Ei total clearly above ALi.
	if g.UpFrontRatio < 1.5 {
		t.Errorf("up-front ratio = %.2f, want well above 1", g.UpFrontRatio)
	}
}

func TestSweepShape(t *testing.T) {
	s, err := ExperimentSweep(t.TempDir(), Tiny, []int{1, 4, 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 3 {
		t.Fatalf("points = %d", len(s.Points))
	}
	// ALi time grows with the data of interest and the widest query
	// approaches (but does not exceed by much) the Ei load asymptote.
	if s.Points[0].ALiTime >= s.Points[2].ALiTime {
		t.Error("sweep not increasing with selectivity")
	}
	if s.Points[2].FilesOfInterest != Tiny.Files() {
		t.Errorf("widest query touches %d files, want all %d",
			s.Points[2].FilesOfInterest, Tiny.Files())
	}
	if s.Points[2].ALiTime > s.EiLoadTime*3/2 {
		t.Errorf("worst case %v far exceeds the Ei-load asymptote %v",
			s.Points[2].ALiTime, s.EiLoadTime)
	}
}

func TestCacheGranularityShape(t *testing.T) {
	c, err := ExperimentCacheGranularity(t.TempDir(), Tiny)
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) CacheSession {
		for _, s := range c.Sessions {
			if s.Config == name {
				return s
			}
		}
		t.Fatalf("session %s missing", name)
		return CacheSession{}
	}
	// Zooming in: both granularities mount once; no cache mounts per query.
	if get("no-cache/zoom").FilesMounted != 4 {
		t.Error("no-cache zoom should mount 4 times")
	}
	if get("file-granular/zoom").FilesMounted != 1 || get("tuple-granular/zoom").FilesMounted != 1 {
		t.Error("caches should mount once while zooming in")
	}
	// Panning: tuple granularity must keep remounting, file must not.
	if get("file-granular/pan").FilesMounted != 1 {
		t.Error("file-granular pan should mount once")
	}
	if get("tuple-granular/pan").FilesMounted != 4 {
		t.Error("tuple-granular pan should remount per query (paper's trade-off)")
	}
}

func TestDerivedShape(t *testing.T) {
	d, err := ExperimentDerived(t.TempDir(), Tiny)
	if err != nil {
		t.Fatal(err)
	}
	// Derived metadata must beat re-mounting on the repeat query. Mounts
	// and modeled I/O say so deterministically; the wall-inclusive times
	// the table prints depend on what else the machine is running.
	if d.RepeatWithDMMounts != 0 {
		t.Errorf("derived repeat mounted %d files, want 0", d.RepeatWithDMMounts)
	}
	if d.RepeatNoDMMounts == 0 {
		t.Error("repeat without derived metadata mounted nothing")
	}
	// Both repeats are hot, so the mounting one may be charged no I/O
	// either; the cold first run always is.
	if d.RepeatWithDMIO > d.RepeatNoDMIO {
		t.Errorf("derived repeat charged %v modeled I/O, more than the mounting repeat's %v",
			d.RepeatWithDMIO, d.RepeatNoDMIO)
	}
	if d.FirstRunIO <= d.RepeatWithDMIO {
		t.Errorf("first run charged %v modeled I/O, not more than the derived repeat's %v",
			d.FirstRunIO, d.RepeatWithDMIO)
	}
	if d.String() == "" {
		t.Error("empty rendering")
	}
}

func TestMeasurementProtocols(t *testing.T) {
	m, err := BuildRepo(t.TempDir(), Tiny)
	if err != nil {
		t.Fatal(err)
	}
	e, err := OpenEngine(m, t.TempDir(), engineOptsALi())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	cold, err := RunCold(e, Query1, 2)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := RunHot(e, Query1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Modeled <= hot.Modeled {
		t.Errorf("cold %v not above hot %v", cold.Modeled, hot.Modeled)
	}
	if cold.Modeled < cold.Wall {
		t.Error("modeled time must include wall time")
	}
}

func TestFormatHelpers(t *testing.T) {
	for in, want := range map[int64]string{
		512:     "512 B",
		2048:    "2.00 KiB",
		3 << 20: "3.00 MiB",
		5 << 30: "5.00 GiB",
	} {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
	if Ratio(10*time.Second, 0) != "inf" {
		t.Error("zero-division ratio")
	}
	if Ratio(3*time.Second, 2*time.Second) != "1.5x" {
		t.Error("ratio formatting")
	}
}

func engineOptsALi() core.Options { return core.Options{Mode: core.ModeALi} }
