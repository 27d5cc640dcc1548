package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// runConfig is what the command line decides about a run.
type runConfig struct {
	Seed    int64
	Seconds float64
	Workdir string
	// Tiny swaps in the 1/50-size fixtures and sets up once, for
	// smoke_test.go.
	Tiny bool
}

// setupRepeats is how many times set-up (Open + warm-up on a fresh
// database directory) is repeated; setup_s is the median.
const setupRepeats = 3

// instance is a workload made concrete for one seed: fixture on disk,
// queries generated, reference answers known, engine options sized.
type instance struct {
	w       *workload
	cfg     runConfig
	fx      *fixture
	ld      *load
	refs    []uint64 // reference checksum per query
	opts    options
	clients int
	nproc   int
	// workingSet is the total result bytes of the distinct queries.
	workingSet int64
}

// instantiate generates the workload's inputs from the seed and answers
// every distinct query once on the reference engine.
func instantiate(w *workload, cfg runConfig) (*instance, error) {
	shape := w.Shape
	if cfg.Tiny {
		shape = shape.shrunk()
	}
	if err := os.MkdirAll(cfg.Workdir, 0o755); err != nil {
		return nil, err
	}
	fx, err := ensureFixture(cfg.Workdir, shape)
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	in := &instance{w: w, cfg: cfg, fx: fx, nproc: nproc, clients: w.Clients(nproc)}
	in.ld = w.Build(fx, rand.New(rand.NewSource(cfg.Seed)), nproc)

	ref, err := openEngine(fx.Dir, cfg.Workdir, referenceOptions)
	if err != nil {
		return nil, fmt.Errorf("open reference engine: %w", err)
	}
	defer ref.close()
	in.refs = make([]uint64, len(in.ld.Queries))
	for i, q := range in.ld.Queries {
		ans, _, err := ref.query(context.Background(), "reference", q.SQL)
		if err != nil {
			return nil, fmt.Errorf("reference answer for %q: %w", q.SQL, err)
		}
		in.refs[i] = ans.Sum
		if !q.Respelled {
			in.workingSet += ans.resultBytes()
		}
	}
	in.opts = in.ld.Options(in.workingSet)
	return in, nil
}

// clientRNG gives every client, and the warm-up, its own stream of the
// run's seed.
func (in *instance) clientRNG(client int) *rand.Rand {
	return rand.New(rand.NewSource(in.cfg.Seed*1_000_003 + int64(client)))
}

const warmupStream = -1

func sessionName(client int) string { return fmt.Sprintf("client-%d", client) }

// open opens the workload's engine on a fresh database directory.
func (in *instance) open() (*engine, error) {
	return openEngine(in.fx.Dir, in.cfg.Workdir, in.opts)
}

// warm runs the warm-up requests, checking their answers.
func (in *instance) warm(eng *engine) error {
	block := in.ld.Block(in.clientRNG(warmupStream))
	for _, idx := range block[:min(in.ld.Warmup, len(block))] {
		ans, _, err := eng.query(context.Background(), sessionName(0), in.ld.Queries[idx].SQL)
		if err == nil && ans.Sum != in.refs[idx] {
			err = fmt.Errorf("answer differs from the reference engine's")
		}
		if err != nil {
			return fmt.Errorf("warm-up %q: %w", in.ld.Queries[idx].SQL, err)
		}
	}
	return nil
}

// setup is what setup_s times: fresh database directory to engine ready.
func (in *instance) setup() (*engine, time.Duration, error) {
	start := time.Now()
	eng, err := in.open()
	if err != nil {
		return nil, 0, err
	}
	if err := in.warm(eng); err != nil {
		eng.close()
		return nil, 0, err
	}
	return eng, time.Since(start), nil
}

// clientLog is what one closed-loop client recorded.
type clientLog struct {
	latencies []time.Duration
	failed    int
}

// minTimed is the fewest queries a run times, however short -seconds is
// or slow the machine: query_p95_ms then has ten samples beyond it.
const minTimed = 200

// drive runs the closed loop until the given time has passed and minTimed
// queries are timed: every client sends its next query when the previous
// one returns. issue executes one request, told which of the client's
// blocks it belongs to, and reports how long the engine took over it. A
// single client stops at a block boundary, so its per-query counts are
// those of whole blocks; concurrent clients stop after any query, so that
// none runs on alone.
func (in *instance) drive(seconds float64, issue func(client, block, idx int) (answer, time.Duration, error)) ([]clientLog, time.Duration) {
	logs := make([]clientLog, in.clients)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var timed atomic.Int64
	done := func() bool { return timed.Load() >= minTimed && time.Now().After(deadline) }
	var wg sync.WaitGroup
	for c := 0; c < in.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := in.clientRNG(c)
			log := &logs[c]
			for block := 0; ; block++ {
				for _, idx := range in.ld.Block(rng) {
					ans, took, err := issue(c, block, idx)
					log.latencies = append(log.latencies, took)
					if err != nil || ans.Sum != in.refs[idx] {
						log.failed++
					}
					timed.Add(1)
					if in.clients > 1 && done() {
						return
					}
				}
				if done() {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return logs, time.Since(start)
}

// runResult is one workload's untraced run (and, once traced, its
// per-layer block) in the shape -out writes.
type runResult struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Nproc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Clients    int     `json:"clients"`
	Options    options `json:"options"`
	// WorkingSetBytes is the total result bytes of the distinct queries,
	// the size the result-cache tiers are stated against; StoredBytes is
	// what the engine holds on disk after set-up, the size the buffer
	// pool is stated against.
	WorkingSetBytes int64 `json:"working_set_bytes"`
	StoredBytes     int64 `json:"stored_bytes"`
	DistinctQueries int   `json:"distinct_queries"`
	// Queries is the timed count; it is also the latency sample count
	// behind query_p50_ms and query_p95_ms.
	Queries   int                    `json:"queries"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Layers    map[string]metricValue `json:"per_layer,omitempty"`
}

func (in *instance) newResult() *runResult {
	return &runResult{
		Workload: in.w.Name, Seed: in.cfg.Seed,
		Nproc: in.nproc, GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Clients: in.clients, Options: in.opts,
		WorkingSetBytes: in.workingSet, DistinctQueries: len(in.ld.Queries),
	}
}

// runUntraced measures the end-to-end metrics: set-up several times, then
// the closed loop through QueryAs with nothing else going on.
func runUntraced(w *workload, cfg runConfig) (*runResult, error) {
	in, err := instantiate(w, cfg)
	if err != nil {
		return nil, err
	}
	repeats := setupRepeats
	if cfg.Tiny {
		repeats = 1
	}
	var eng *engine
	setups := make([]time.Duration, 0, repeats)
	for i := 0; i < repeats; i++ {
		if eng != nil {
			if err := eng.close(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		if eng, took, err = in.setup(); err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}
	defer eng.close()

	res := in.newResult()
	res.StoredBytes = eng.storedBytes()

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c0 := eng.counters()
	logs, wall := in.drive(cfg.Seconds, func(client, _, idx int) (answer, time.Duration, error) {
		return eng.query(context.Background(), sessionName(client), in.ld.Queries[idx].SQL)
	})
	c1 := eng.counters()
	runtime.ReadMemStats(&after)

	var all []time.Duration
	for _, l := range logs {
		all = append(all, l.latencies...)
		res.Failed += l.failed
	}
	slices.Sort(all)
	n := float64(len(all))
	res.Queries, res.Attempted = len(all), len(all)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	res.Metrics = report(endToEnd, map[string]float64{
		"setup_s":                 medianOf(setups).Seconds(),
		"query_p50_ms":            ms(percentile(all, 0.50)),
		"query_p95_ms":            ms(percentile(all, 0.95)),
		"queries_per_s":           n / wall.Seconds(),
		"alloc_kb_per_query":      float64(after.TotalAlloc-before.TotalAlloc) / 1024 / n,
		"allocs_per_query":        float64(after.Mallocs-before.Mallocs) / n,
		"modeled_io_ms_per_query": ms(c1.ModeledIO-c0.ModeledIO) / n,
	})
	return res, nil
}

// percentile returns the smallest sample with at least share p of the
// sorted samples at or below it.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(int(math.Ceil(p*float64(len(sorted))))-1, 0)]
}

// medianOf is the percentile-0.5 sample of d, which it leaves unsorted.
func medianOf(d []time.Duration) time.Duration {
	sorted := slices.Clone(d)
	slices.Sort(sorted)
	return percentile(sorted, 0.5)
}
