// Command bench runs the paper's full evaluation and prints every table
// and figure: Table 1 (dataset and sizes), Figure 3 (Query 1/2 cold/hot
// under Ei and ALi), the up-front ingestion comparison, and the
// ablations (selectivity sweep, cache granularity, merge strategy,
// derived metadata). README.md, "Reproducing the paper's evaluation",
// shows how to run it; the repo's gated benchmark is benchmark/README.md.
//
// Usage:
//
//	bench [-scale tiny|small|medium]
//	      [-exp all|table1|figure3|ingest|sweep|cache|strategy|derived|parallel|concurrent|cow|resultcache|fairness|subsume|prune|spill]
//	      [-runs 3] [-parallelism N] [-clients 8] [-sessions 3] [-quota 0.5]
//	      [-zoom 4] [-json DIR]
//
// -json DIR appends one record per experiment — name, scale, wall time,
// file mounts, full executions, and any experiment-specific counters
// (result-cache hits, subsumption hits, mounts saved) — to
// DIR/BENCH_<exp>.json, each file a growing JSON array: the repository's
// performance trajectory across runs (CI uploads them as artifacts).
//
// -parallelism sets the engine's ingestion/mount worker count for every
// experiment (0 = one worker per CPU); the "parallel" experiment sweeps
// worker counts 1, 4 and 8 regardless of the flag. The "concurrent"
// experiment issues -clients identical cold queries at once against one
// engine, demonstrating the mount service's single-flight coalescing.
// The "cow" experiment measures bytes allocated on the shared-Qf-replay
// and K-concurrent-cold-clients paths under the old deep-clone
// discipline versus copy-on-write shares. The "resultcache" experiment
// issues -clients identical queries at once against an engine with the
// result cache enabled: one full execution, riders served as O(1) CoW
// shares, and repeats (including equivalently spelled variants) hitting
// the stored entry. The "fairness" experiment runs one greedy bulk
// session against -sessions interactive sessions over a small mount
// budget with a per-session share of -quota, and errors unless the
// interactive p95 admission wait stays bounded (the FIFO + quota gate's
// no-starvation contract). The "subsume" experiment drives a -zoom step
// zooming explore session against the semantic result cache and errors
// unless every query after the first is answered by re-filtering a wider
// cached entry — zero file mounts — byte-identical to cold execution.
// The "prune" experiment runs a selective workload against the
// statistics-free planner (the frozen Qf result as a cardinality
// oracle) and errors unless files are pruned before mounting, mounts
// drop strictly below the planning-off baseline, and every answer stays
// byte-identical to the unpruned execution. The "spill" experiment runs
// a full sweep under a mount budget far smaller than one decoded file
// and errors unless the over-budget mounts complete by spilling their
// replay buffers to disk (resident peak strictly below one flight's
// decoded bytes), answers stay byte-identical to an unlimited in-memory
// baseline at serial and parallel scheduling, and a simulated restart
// over the same spill directory serves the repeat query from the
// disk-persisted result cache with zero executions.
//
// An unrecognized -exp name is an error listing the valid experiments;
// -sessions below 1, -quota outside (0, 1] and -zoom below 2 are
// likewise errors.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

import "repro/internal/benchutil"

// experiment is one registered benchmark; keeping the registry as a
// slice preserves the canonical run order for -exp all.
type experiment struct {
	name string
	run  func() (fmt.Stringer, error)
}

func main() {
	var (
		scaleName   = flag.String("scale", "small", "dataset scale: tiny, small or medium")
		exp         = flag.String("exp", "all", "experiment to run, or all")
		runs        = flag.Int("runs", 3, "identical runs averaged per measurement (paper uses 3)")
		keep        = flag.String("workdir", "", "working directory (default: temp, removed on exit)")
		parallelism = flag.Int("parallelism", 0, "ingestion/mount workers per engine (0 = one per CPU)")
		clients     = flag.Int("clients", 8, "concurrent clients for the concurrent/cow/resultcache experiments")
		sessions    = flag.Int("sessions", 3, "interactive sessions for the fairness experiment (>= 1)")
		quota       = flag.Float64("quota", 0.5, "per-session mount-budget share for the fairness experiment, in (0, 1]")
		zoom        = flag.Int("zoom", 4, "zoom steps for the subsume experiment (>= 2)")
		jsonDir     = flag.String("json", "", "directory to append per-experiment trajectory records to (BENCH_<exp>.json)")
	)
	flag.Parse()
	sc := benchutil.ScaleByName(*scaleName)
	// Like -exp, bad fairness parameters must be an error up front, not
	// a late surprise (or a silent misconfiguration) inside -exp all.
	if *sessions < 1 {
		fatal(fmt.Errorf("-sessions must be >= 1, got %d", *sessions))
	}
	if *quota <= 0 || *quota > 1 {
		fatal(fmt.Errorf("-quota must be in (0, 1], got %v", *quota))
	}
	// A one-step "zoom" has no nested query to subsume: reject up front.
	if *zoom < 2 {
		fatal(fmt.Errorf("-zoom must be >= 2, got %d", *zoom))
	}
	if *parallelism != 0 { // 0 keeps REPRO_PARALLELISM (or per-CPU default)
		benchutil.DefaultParallelism = *parallelism
	}
	if *runs < 1 {
		*runs = 1
	}

	base := *keep
	if base == "" {
		dir, err := os.MkdirTemp("", "repro-bench-")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		base = dir
	}

	experiments := []experiment{
		{"table1", func() (fmt.Stringer, error) { return benchutil.ExperimentTable1(base, sc) }},
		{"ingest", func() (fmt.Stringer, error) { return benchutil.ExperimentIngestion(base, sc) }},
		{"figure3", func() (fmt.Stringer, error) { return benchutil.ExperimentFigure3(base, sc, *runs) }},
		{"sweep", func() (fmt.Stringer, error) {
			steps := []int{1, 2, 4, 7, sc.Days}
			return benchutil.ExperimentSweep(base, sc, steps)
		}},
		{"cache", func() (fmt.Stringer, error) { return benchutil.ExperimentCacheGranularity(base, sc) }},
		{"strategy", func() (fmt.Stringer, error) { return benchutil.ExperimentMergeStrategy(base, sc) }},
		{"derived", func() (fmt.Stringer, error) { return benchutil.ExperimentDerived(base, sc) }},
		{"parallel", func() (fmt.Stringer, error) {
			return benchutil.ExperimentParallelism(base, sc, []int{1, 4, 8}, *runs)
		}},
		{"concurrent", func() (fmt.Stringer, error) {
			return benchutil.ExperimentConcurrency(base, sc, *clients)
		}},
		{"cow", func() (fmt.Stringer, error) { return benchutil.ExperimentCoW(base, sc, *clients) }},
		{"resultcache", func() (fmt.Stringer, error) {
			return benchutil.ExperimentResultCache(base, sc, *clients)
		}},
		{"fairness", func() (fmt.Stringer, error) {
			return benchutil.ExperimentFairness(base, sc, *sessions, *quota)
		}},
		{"subsume", func() (fmt.Stringer, error) {
			return benchutil.ExperimentSubsume(base, sc, *zoom)
		}},
		{"prune", func() (fmt.Stringer, error) { return benchutil.ExperimentPrune(base, sc) }},
		{"spill", func() (fmt.Stringer, error) { return benchutil.ExperimentSpill(base, sc) }},
	}

	// An unrecognized experiment name must be an error, not a silent
	// zero-experiment success.
	if *exp != "all" {
		known := false
		for _, e := range experiments {
			if e.name == *exp {
				known = true
				break
			}
		}
		if !known {
			names := make([]string, len(experiments))
			for i, e := range experiments {
				names[i] = e.name
			}
			fatal(fmt.Errorf("unknown experiment %q; valid experiments: all, %s",
				*exp, strings.Join(names, ", ")))
		}
	}

	fmt.Printf("== reproduction benchmarks: scale %s (%d files, %d samples) ==\n\n",
		sc.Name, sc.Files(), sc.Samples())
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		start := time.Now()
		out, err := e.run()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.name, err))
		}
		wall := time.Since(start)
		fmt.Print(out.String())
		fmt.Printf("  [experiment wall time: %v]\n\n", wall.Round(time.Millisecond))
		if *jsonDir != "" {
			if err := appendRecord(*jsonDir, e.name, sc.Name, wall, out); err != nil {
				fatal(fmt.Errorf("%s: recording trajectory: %w", e.name, err))
			}
		}
	}
}

// benchRecord is one point of an experiment's performance trajectory:
// the BENCH_<exp>.json files accumulate one record per bench run, so
// regressions show up as a step in the series rather than a shrug.
type benchRecord struct {
	Experiment string           `json:"experiment"`
	Scale      string           `json:"scale"`
	WallMS     float64          `json:"wall_ms"`
	Mounts     int              `json:"mounts"`
	Executions int              `json:"executions"`
	Counters   map[string]int64 `json:"counters,omitempty"`
	Timestamp  string           `json:"timestamp"`
}

// appendRecord appends one record to dir/BENCH_<name>.json, keeping the
// file a well-formed JSON array across runs. A corrupt existing file is
// an error, not a silent restart of the series.
func appendRecord(dir, name, scale string, wall time.Duration, out fmt.Stringer) error {
	rec := benchRecord{
		Experiment: name,
		Scale:      scale,
		WallMS:     float64(wall.Microseconds()) / 1e3,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	if c, ok := out.(benchutil.Counters); ok {
		rec.Mounts, rec.Executions = c.BenchCounters()
	}
	if x, ok := out.(benchutil.ExtraCounters); ok {
		rec.Counters = x.BenchExtra()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+name+".json")
	var recs []benchRecord
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &recs); err != nil {
			return fmt.Errorf("%s holds something other than a record array: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	recs = append(recs, rec)
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
