// Command bench runs the paper's evaluation and prints every table and
// figure: Table 1 (dataset and sizes), the up-front ingestion
// comparison, Figure 3 (Query 1/2 cold/hot under Ei and ALi), and the
// §4–§5 ablations (selectivity sweep, cache granularity, derived
// metadata). README.md, "Reproducing the paper's evaluation", shows how
// to run it; per-mechanism numbers are the repo's gated benchmark,
// benchmark/README.md.
//
// Usage:
//
//	bench [-scale tiny|small|medium]
//	      [-exp all|table1|ingest|figure3|sweep|cache|derived]
//	      [-runs 3] [-workdir DIR]
//
// An unrecognized -exp or -scale is an error listing the valid names.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/benchutil"
)

// experiment is one part of the evaluation; the slice order is the run
// order of -exp all.
type experiment struct {
	name string
	run  func(base string, sc benchutil.Scale, runs int) (fmt.Stringer, error)
}

var experiments = []experiment{
	{"table1", func(base string, sc benchutil.Scale, _ int) (fmt.Stringer, error) {
		return benchutil.ExperimentTable1(base, sc)
	}},
	{"ingest", func(base string, sc benchutil.Scale, _ int) (fmt.Stringer, error) {
		return benchutil.ExperimentIngestion(base, sc)
	}},
	{"figure3", func(base string, sc benchutil.Scale, runs int) (fmt.Stringer, error) {
		return benchutil.ExperimentFigure3(base, sc, runs)
	}},
	{"sweep", func(base string, sc benchutil.Scale, _ int) (fmt.Stringer, error) {
		return benchutil.ExperimentSweep(base, sc, []int{1, 2, 4, 7, sc.Days})
	}},
	{"cache", func(base string, sc benchutil.Scale, _ int) (fmt.Stringer, error) {
		return benchutil.ExperimentCacheGranularity(base, sc)
	}},
	{"derived", func(base string, sc benchutil.Scale, _ int) (fmt.Stringer, error) {
		return benchutil.ExperimentDerived(base, sc)
	}},
}

const usage = "usage: bench [-scale tiny|small|medium] [-exp all|table1|ingest|figure3|sweep|cache|derived] [-runs N] [-workdir DIR]"

// config is a validated command line.
type config struct {
	scale   benchutil.Scale
	exp     string // "all" or one experiment's name
	runs    int
	workdir string // "" means a temp dir removed on exit
}

// parseArgs parses and validates the command line (without the program
// name): an unknown flag, experiment or scale is an error, not a run of
// something else.
func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	scaleName := fs.String("scale", "small", "dataset scale: tiny, small or medium")
	exp := fs.String("exp", "all", "experiment to run, or all")
	runs := fs.Int("runs", 3, "identical runs averaged per measurement (paper uses 3)")
	workdir := fs.String("workdir", "", "working directory (default: temp, removed on exit)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	sc, err := benchutil.ScaleByName(*scaleName)
	if err != nil {
		return config{}, err
	}
	names := make([]string, len(experiments))
	known := *exp == "all"
	for i, e := range experiments {
		names[i] = e.name
		known = known || e.name == *exp
	}
	if !known {
		return config{}, fmt.Errorf("unknown experiment %q; valid experiments: all, %s",
			*exp, strings.Join(names, ", "))
	}
	if *runs < 1 {
		*runs = 1
	}
	return config{scale: sc, exp: *exp, runs: *runs, workdir: *workdir}, nil
}

func main() {
	cfg, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	base := cfg.workdir
	if base == "" {
		dir, err := os.MkdirTemp("", "repro-bench-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		base = dir
	}
	sc := cfg.scale
	fmt.Printf("== reproduction benchmarks: scale %s (%d files, %d samples) ==\n\n",
		sc.Name, sc.Files(), sc.Samples())
	for _, e := range experiments {
		if cfg.exp != "all" && cfg.exp != e.name {
			continue
		}
		start := time.Now()
		out, err := e.run(base, sc, cfg.runs)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Print(out.String())
		fmt.Printf("  [experiment wall time: %v]\n\n", time.Since(start).Round(time.Millisecond))
	}
	return nil
}
