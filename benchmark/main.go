// Command benchmark is the repository's benchmark (ISSUE 12): five
// exploration workloads generated from a seed, eight end-to-end metrics
// measured with tracing off, and a separate traced run that splits each
// query's time across the packages under internal/. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "workload seed: the same seed gives the same queries")
		name      = flag.String("workload", "", "run only this workload (see -list)")
		list      = flag.Bool("list", false, "list workloads and metrics, then exit")
		workdir   = flag.String("workdir", "out", "directory for fixtures, scratch databases and trace files")
		out       = flag.String("out", "", "write the full results as JSON to this file")
		seconds   = flag.Float64("seconds", 15, "how long each run measures")
		trace     = flag.Int("trace", 0, "with -workload: 0 measures end to end only, 1 makes only the traced per-layer run; the last line of output is then one JSON result")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced suite twice with the same seed and fail unless the metrics repeat within their bounds")
	)
	flag.Parse()
	traceGiven := false
	flag.Visit(func(f *flag.Flag) { traceGiven = traceGiven || f.Name == "trace" })

	if *list {
		printList()
		return
	}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fatalf("unknown workload %q (see -list)", *name)
		}
		selected = []workload{*w}
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace is 0 or 1, not %d", *trace)
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Workdir: *workdir}

	if *selfcheck {
		if !selfCheck(selected, cfg) {
			os.Exit(1)
		}
		return
	}

	// One workload with -trace given is how a driver calls the benchmark:
	// one run, one kind of metrics, one result line.
	single := *name != "" && traceGiven
	var results []*runResult
	failed := false
	for i := range selected {
		w := &selected[i]
		var res *runResult
		var err error
		if !single || *trace == 0 {
			if res, err = runUntraced(w, cfg); err != nil {
				fatalf("%s: %v", w.Name, err)
			}
			printMetrics(res.Workload, "end to end, tracing off", endToEnd, res.Metrics)
		}
		if !single || *trace == 1 {
			traced, err := runTraced(w, cfg)
			if err != nil {
				fatalf("%s (traced): %v", w.Name, err)
			}
			printMetrics(traced.Workload, "per layer, traced run", perLayer, traced.Layers)
			if res == nil {
				res = traced
			} else {
				res.Layers = traced.Layers
				res.Attempted += traced.Attempted
				res.Failed += traced.Failed
			}
		}
		fmt.Printf("%s: attempted %d, failed %d\n\n", res.Workload, res.Attempted, res.Failed)
		failed = failed || res.Failed > 0
		results = append(results, res)
	}
	if *out != "" {
		if err := writeJSON(*out, results); err != nil {
			fatalf("write %s: %v", *out, err)
		}
	}
	if single {
		printResultLine(results[0], *trace == 1)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchmark: answers differed from the reference engine's")
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-15s %s\n", w.Name, w.Why)
	}
	fmt.Println("end-to-end metrics (bound = share by which the metric may worsen):")
	for _, m := range endToEnd {
		fmt.Printf("  %-26s %-6s %s is better, bound %.2f\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Println("per-layer metrics (traced run):")
	for _, m := range perLayer {
		fmt.Printf("  %-38s %-11s %s is better\n", m.Name, m.Unit, m.Better)
	}
}

func printMetrics(workload, title string, defs []metricDef, values map[string]metricValue) {
	fmt.Printf("%s — %s\n", workload, title)
	for _, d := range defs {
		fmt.Printf("  %-38s %14.4f %s\n", d.Name, values[d.Name].Value, d.Unit)
	}
}

// printResultLine prints the one JSON object a driver reads from the last
// line of standard output.
func printResultLine(res *runResult, traced bool) {
	metrics := res.Metrics
	if traced {
		metrics = res.Layers
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// selfCheck is the repeatability criterion as a command: two untraced
// runs of the same seed must agree on every metric within its bound, and
// on modeled I/O, which the program counts, within countTolerance whenever
// a single client timed the same whole blocks in both runs.
func selfCheck(selected []workload, cfg runConfig) bool {
	ok := true
	for i := range selected {
		w := &selected[i]
		var runs [2]*runResult
		for r := range runs {
			res, err := runUntraced(w, cfg)
			if err != nil {
				fatalf("%s: %v", w.Name, err)
			}
			if res.Failed > 0 {
				fmt.Printf("%s: run %d had %d failed operations\n", w.Name, r+1, res.Failed)
				ok = false
			}
			runs[r] = res
		}
		sameBlocks := runs[0].Clients == 1 && runs[0].Queries == runs[1].Queries
		for _, m := range endToEnd {
			a, b := runs[0].Metrics[m.Name].Value, runs[1].Metrics[m.Name].Value
			tolerance := m.Bound
			if m.Name == "modeled_io_ms_per_query" && sameBlocks {
				tolerance = countTolerance
			}
			verdict := "ok"
			if !agree(a, b, tolerance) {
				verdict = "DIFFERS"
				ok = false
			}
			fmt.Printf("%-15s %-26s %14.4f %14.4f  within %.2f: %s\n", w.Name, m.Name, a, b, tolerance, verdict)
		}
	}
	return ok
}

// countTolerance is how far modeled I/O, a count the program makes, may
// differ between two runs of the same blocks. It is not zero: at Parallelism 2 a query's files are
// mounted concurrently, the order in which their pages reach the buffer
// pool's LRU varies, and with it a fraction of a percent of the misses.
const countTolerance = 0.01

func agree(a, b, tolerance float64) bool {
	if a == b {
		return true
	}
	lo, hi := min(a, b), max(a, b)
	return lo > 0 && (hi-lo)/lo <= tolerance
}
