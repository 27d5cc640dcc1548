package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/repo"
)

// fixture is one generated mSEED repository and the geometry the query
// generators need: which stations and days exist and which part of each
// day the files cover.
type fixture struct {
	Name     string
	Dir      string
	Stations []repo.Station
	Channels []string
	Start    time.Time
	Days     int
	// DayOffset is where each day's coverage starts; Coverage is how long
	// one file's records run from there.
	DayOffset time.Duration
	Coverage  time.Duration
	// URIs are the repository's files, as the engine lists them.
	URIs      []string
	RepoBytes int64
	FileBytes int64 // mean repository-file size
	Samples   int64
}

// fixtureShape is the part of a repo.Spec the benchmark varies.
type fixtureShape struct {
	Name                             string
	Stations, Days, Records, Samples int
}

// The two repositories of ISSUE 12. repo_main is ~33 MiB of mSEED (504
// files, 32 M samples) for the ALi workloads; repo_small (168 files, 2.7 M
// samples) is what the eager baseline loads in full on every set-up.
var (
	repoMain  = fixtureShape{Name: "repo_main", Stations: 8, Days: 21, Records: 16, Samples: 4000}
	repoSmall = fixtureShape{Name: "repo_small", Stations: 4, Days: 14, Records: 8, Samples: 2000}
)

// shrunk is the 1/50-size shape smoke_test.go runs against.
func (s fixtureShape) shrunk() fixtureShape {
	return fixtureShape{Name: s.Name + "_tiny", Stations: 2, Days: 3, Records: 4, Samples: 1000}
}

func (s fixtureShape) spec(dir string) repo.Spec {
	spec := repo.DefaultSpec(dir)
	spec.Stations = spec.Stations[:s.Stations]
	spec.Days = s.Days
	spec.RecordsPerFile = s.Records
	spec.SamplesPerRecord = s.Samples
	spec.DayOffset = 22 * time.Hour
	return spec
}

// ensureFixture generates the repository under workdir unless a complete
// one of the same shape is already there. Generation is deterministic, so
// a reused fixture is byte-identical to a fresh one; it is not part of
// any reported time.
func ensureFixture(workdir string, shape fixtureShape) (*fixture, error) {
	dir := filepath.Join(workdir, shape.Name)
	spec := shape.spec(dir)
	marker := dir + ".complete" // beside, not inside: the engine reads every file in dir
	want := fmt.Sprintf("%+v", shape)
	if got, err := os.ReadFile(marker); err != nil || string(got) != want {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if _, err := repo.Generate(spec); err != nil {
			return nil, fmt.Errorf("generate %s: %w", shape.Name, err)
		}
		if err := os.WriteFile(marker, []byte(want), 0o644); err != nil {
			return nil, err
		}
	}
	var bytes int64
	var uris []string
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		bytes += info.Size()
		uris = append(uris, e.Name())
	}
	if want := shape.Stations * len(spec.Channels) * shape.Days; len(uris) != want {
		return nil, fmt.Errorf("fixture %s holds %d files, want %d", dir, len(uris), want)
	}
	perRecord := time.Duration(float64(shape.Samples) / spec.SampleRate * float64(time.Second))
	return &fixture{
		Name: shape.Name, Dir: dir,
		Stations: spec.Stations, Channels: spec.Channels,
		Start: spec.StartDate, Days: shape.Days,
		DayOffset: spec.DayOffset, Coverage: perRecord * time.Duration(shape.Records),
		URIs: uris, RepoBytes: bytes, FileBytes: bytes / int64(len(uris)),
		Samples: int64(len(uris)) * int64(shape.Records) * int64(shape.Samples),
	}, nil
}

// uri names the repository file of one station, channel and day.
func (f *fixture) uri(station, channel, day int) string {
	return repo.FileName(f.Stations[station], f.Channels[channel], f.Start.AddDate(0, 0, day))
}
