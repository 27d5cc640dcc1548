package main

import (
	"context"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/vector"
)

const (
	// sampleSize is how many traced queries are kept for the layer probes
	// (all of them when a workload fits fewer into the run).
	sampleSize = 200
	// tracedShare is the part of -seconds the traced run spends driving
	// the workload; the rest of its time goes to the probes.
	tracedShare = 0.8
)

// tracedTotals sums what each answer of the traced run's stretch reported.
type tracedTotals struct {
	queries, traced, ofInterest, mounted, prunedFiles, joinFlips int
}

// runTraced makes the per-layer run. It opens the workload's engine once
// and drives the workload with tracing on — through PrepareAs → Stage1 →
// Proceed under spans — on even blocks and off on odd ones, so that the two
// see the same engine in the same state and trace_overhead_share compares
// like with like. It keeps a seeded sample of the traced queries and
// afterwards probes each layer on those queries' own inputs. Count metrics
// are differences of the engine's public Stats() over the whole stretch.
func runTraced(w *workload, cfg runConfig) (*runResult, error) {
	in, err := instantiate(w, cfg)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var eng *engine
	if _, err := tr.timed("core.open", noSpan, noSpan, func() (_ int, err error) {
		eng, err = in.open()
		return 1, err
	}); err != nil {
		return nil, err
	}
	defer eng.close()
	if err := in.warm(eng); err != nil {
		return nil, err
	}
	res := in.newResult()
	res.StoredBytes = eng.storedBytes()

	var mu sync.Mutex // guards totals, untraced, samples and pick
	var totals tracedTotals
	var untraced []time.Duration
	samples := make([]sample, 0, sampleSize)
	pick := rand.New(rand.NewSource(cfg.Seed))
	count := func(ans answer) {
		totals.queries++
		totals.ofInterest += ans.OfInterest
		totals.mounted += ans.Mounted
		totals.prunedFiles += ans.PrunedFiles
		totals.joinFlips += ans.JoinFlips
	}
	c0, cow0 := eng.counters(), vector.CowCopies()
	logs, _ := in.drive(cfg.Seconds*tracedShare, func(client, block, idx int) (answer, time.Duration, error) {
		q := in.ld.Queries[idx]
		if block%2 == 1 {
			ans, took, err := eng.query(context.Background(), sessionName(client), q.SQL)
			mu.Lock()
			untraced = append(untraced, took)
			count(ans)
			mu.Unlock()
			return ans, took, err
		}

		mu.Lock()
		id := totals.traced
		totals.traced++
		mu.Unlock()
		var st *staged
		root := tr.begin("query", noSpan, id)
		_, err := tr.timed("core.prepare", root, id, func() (_ int, err error) {
			st, err = eng.prepare(context.Background(), sessionName(client), q.SQL)
			return 1, err
		})
		if err == nil {
			_, err = tr.timed("core.stage1", root, id, func() (int, error) { return 1, st.stage1() })
		}
		if err == nil {
			_, err = tr.timed("core.proceed", root, id, func() (int, error) { return 1, st.proceed() })
		}
		took := tr.end(root)
		if err != nil {
			return answer{}, took, err
		}

		ans := st.answer()
		s := sample{query: id, root: root, idx: idx, files: st.filesOfInterest(), ans: ans}
		if in.opts.Eager {
			s.files = q.Files
		}
		mu.Lock()
		count(ans)
		// Reservoir sampling: every traced query is equally likely to be
		// among the sampleSize kept.
		if len(samples) < sampleSize {
			samples = append(samples, s)
		} else if slot := pick.Intn(id + 1); slot < sampleSize {
			samples[slot] = s
		}
		mu.Unlock()
		return ans, took, nil
	})
	c1, cow1 := eng.counters(), vector.CowCopies()

	for _, l := range logs {
		res.Attempted += len(l.latencies)
		res.Failed += l.failed
	}
	res.Queries = totals.traced

	p, err := newProber(in, tr)
	if err != nil {
		return nil, err
	}
	defer p.close()
	if err := p.runtimeProbes(); err != nil {
		return nil, err
	}
	slices.SortFunc(samples, func(a, b sample) int { return a.query - b.query })
	for _, s := range samples {
		if err := p.queryProbes(s); err != nil {
			return nil, err
		}
	}

	values := layerTimes(tr, p, in, samples, medianOf(untraced))
	layerCounts(values, totals, c0, c1, cow1-cow0)
	res.Layers = report(perLayer, values)
	if err := tr.write(filepath.Join(cfg.Workdir, "trace-"+w.Name+".json")); err != nil {
		return nil, err
	}
	return res, nil
}

// perSpan is the mean duration of the spans in the given unit.
func perSpan(spans []span, unit time.Duration) float64 {
	if len(spans) == 0 {
		return 0
	}
	return float64(totalTime(spans)) / float64(unit) / float64(len(spans))
}

// rate is operations (rows, samples, bytes) per second over the spans.
func rate(spans []span) float64 {
	ops := 0
	for _, s := range spans {
		ops += s.Ops
	}
	if total := totalTime(spans); total > 0 {
		return float64(ops) / total.Seconds()
	}
	return 0
}

// attributed names the probes that repeat, from outside, work the engine
// did inside a query's three calls; core.unattributed_share is what they
// leave unexplained.
func attributed(in *instance, q query) map[string]bool {
	cached := in.opts.ResultCacheBytes != 0
	return map[string]bool{
		"sql.parse": true, "plan.bind_optimize": true, "plan.normalize_fingerprint": true,
		"mountsvc.mount": true, "exec.join": true,
		"exec.filter":         q.Hi > q.Lo,
		"exec.agg":            q.Aggregates,
		"plan.subsumption":    in.opts.Subsumption,
		"resultcache.get_hit": cached,
		"exec.serve_cached":   cached,
	}
}

// layerTimes derives the timed per-layer metrics from the spans.
func layerTimes(tr *tracer, p *prober, in *instance, samples []sample, untraced time.Duration) map[string]float64 {
	by := tr.byName()
	const mega = 1e6
	v := map[string]float64{
		"core.open_ms":                         perOp(by["core.open"], time.Millisecond),
		"core.prepare_us":                      perOp(by["core.prepare"], time.Microsecond),
		"core.stage1_us":                       perOp(by["core.stage1"], time.Microsecond),
		"core.proceed_us":                      perOp(by["core.proceed"], time.Microsecond),
		"sql.parse_us":                         perOp(by["sql.parse"], time.Microsecond),
		"plan.bind_optimize_us":                perOp(by["plan.bind_optimize"], time.Microsecond),
		"plan.normalize_fingerprint_us":        perOp(by["plan.normalize_fingerprint"], time.Microsecond),
		"plan.subsumption_us":                  perOp(by["plan.subsumption"], time.Microsecond),
		"ingest.metadata_files_per_s":          rate(by["ingest.metadata"]),
		"ingest.eager_mrows_per_s":             rate(by["ingest.eager"]) / mega,
		"ingest.index_build_s":                 perOp(by["ingest.index_build"], time.Second),
		"mseed.decode_msamples_per_s":          rate(by["mseed.decode"]) / mega,
		"mseed.scan_headers_us_per_file":       perOp(by["mseed.scan_headers"], time.Microsecond),
		"seismic.mount_mrows_per_s":            rate(by["seismic.mount_file"]) / mega,
		"seismic.mount_one_record_us":          perSpan(by["seismic.mount_one_record"], time.Microsecond),
		"seismic.extract_metadata_us_per_file": perOp(by["seismic.extract_metadata"], time.Microsecond),
		"admission.acquire_release_ns":         perOp(by["admission.acquire_release"], time.Nanosecond),
		"storage.spill_write_mb_per_s":         rate(by["storage.spill_write"]) / (1 << 20),
		"storage.spill_read_mb_per_s":          rate(by["storage.spill_read"]) / (1 << 20),
		"resultcache.get_hit_ns":               perOp(by["resultcache.get_hit"], time.Nanosecond),
		"resultcache.promote_us":               perOp(by["resultcache.promote"], time.Microsecond),
		"exec.join_mrows_per_s":                rate(by["exec.join"]) / mega,
		"exec.agg_mrows_per_s":                 rate(by["exec.agg"]) / mega,
		"exec.filter_mrows_per_s":              rate(by["exec.filter"]) / mega,
		"exec.sort_mrows_per_s":                rate(by["exec.sort"]) / mega,
		"exec.serve_cached_us":                 perOp(by["exec.serve_cached"], time.Microsecond),
		"expr.compare_mrows_per_s":             rate(by["expr.compare"]) / mega,
		"vector.share_ns":                      perOp(by["vector.share"], time.Nanosecond),
		"vector.gather_mrows_per_s":            rate(by["vector.gather"]) / mega,
		"vector.permute_mrows_per_s":           rate(by["vector.permute"]) / mega,
		"par.foreach_overhead_us":              perOp(by["par.foreach"], time.Microsecond),
		"index.lookup_us":                      perOp(by["index.lookup"], time.Microsecond),
	}
	v["mountsvc.flight_overhead_us"] = float64(medianOf(p.flightOverheads)) / float64(time.Microsecond)
	if untraced > 0 {
		// Median against median: a query's traced wall (its root span)
		// over the untraced latency of the blocks in between.
		roots := make([]time.Duration, len(by["query"]))
		for i, s := range by["query"] {
			roots[i] = s.duration()
		}
		v["trace_overhead_share"] = float64(medianOf(roots))/float64(untraced) - 1
	}

	// Attribution over the sampled queries: the engine's three calls
	// against the probes that repeat their work layer by layer. A query
	// with a file past the probe budget has mounts no probe repeated, so
	// it is left out rather than counted as unexplained.
	byQuery := make(map[int][]span)
	for _, sp := range tr.spans {
		byQuery[sp.Query] = append(byQuery[sp.Query], sp)
	}
	var core, layers time.Duration
	for _, s := range samples {
		names := attributed(in, in.ld.Queries[s.idx])
		mounts := 0
		for _, sp := range byQuery[s.query] {
			if sp.Name == "mountsvc.mount" {
				mounts++
			}
		}
		if mounts != len(s.files) {
			continue
		}
		for _, sp := range byQuery[s.query] {
			switch {
			case strings.HasPrefix(sp.Name, "core."):
				core += sp.duration()
			case sp.Name == "resultcache.get_hit" && names[sp.Name]:
				layers += sp.duration() / time.Duration(sp.Ops) // the query probed once
			case names[sp.Name]:
				layers += sp.duration()
			}
		}
	}
	if core > 0 {
		v["core.unattributed_share"] = 1 - float64(layers)/float64(core)
	}
	return v
}

func ratio(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// layerCounts derives the counted per-layer metrics: what the answers
// reported, and how far each package's counters moved over the traced
// stretch.
func layerCounts(v map[string]float64, t tracedTotals, c0, c1 counters, cowCopies int64) {
	n := float64(max(t.queries, 1))
	v["mounts_per_query"] = float64(t.mounted) / n
	v["stats.prune_ratio"] = ratio(int64(t.prunedFiles), int64(t.prunedFiles+t.ofInterest))
	v["stats.pruned_files_per_query"] = float64(t.prunedFiles) / n
	v["stats.join_flips"] = float64(t.joinFlips)
	v["vector.cow_copies_per_query"] = float64(cowCopies) / n

	m0, m1 := c0.Mounts, c1.Mounts
	joined := m1.SingleFlightHits - m0.SingleFlightHits
	v["mountsvc.singleflight_hit_ratio"] = ratio(joined,
		joined+m1.FlightsStarted-m0.FlightsStarted+m1.CacheServes-m0.CacheServes)
	v["mountsvc.spilled_mb_per_query"] = float64(m1.SpilledBytes-m0.SpilledBytes) / (1 << 20) / n
	v["mountsvc.spill_replay_reads"] = float64(m1.SpillReplayReads - m0.SpillReplayReads)
	v["mountsvc.peak_replay_bytes"] = float64(m1.PeakReplayBytes)
	v["mountsvc.peak_inflight_bytes"] = float64(m1.PeakInFlightBytes)

	var waited time.Duration
	for name, s := range c1.Gate.PerSession {
		waited += s.WaitTotal - c0.Gate.PerSession[name].WaitTotal
	}
	v["admission.wait_ms_per_query"] = float64(waited) / float64(time.Millisecond) / n
	v["admission.waits"] = float64(c1.Gate.Waits - c0.Gate.Waits)

	hits, misses := c1.Pool.Hits-c0.Pool.Hits, c1.Pool.Misses-c0.Pool.Misses
	v["storage.pool_hit_ratio"] = ratio(hits, hits+misses)
	v["storage.pool_misses_per_query"] = float64(misses) / n
	v["storage.pool_evictions"] = float64(c1.Pool.Evictions - c0.Pool.Evictions)

	hits, misses = c1.Ingest.Hits-c0.Ingest.Hits, c1.Ingest.Misses-c0.Ingest.Misses
	v["cache.hit_ratio"] = ratio(hits, hits+misses)
	v["cache.evictions"] = float64(c1.Ingest.Evictions - c0.Ingest.Evictions)

	r0, r1 := c0.Results, c1.Results
	hits, misses = r1.Hits-r0.Hits, r1.Misses-r0.Misses
	served := r1.SubsumptionHits - r0.SubsumptionHits
	v["resultcache.hit_ratio"] = ratio(hits, hits+misses)
	v["resultcache.subsumption_hit_ratio"] = ratio(served, r1.SubsumptionProbes-r0.SubsumptionProbes)
	v["resultcache.demotions"] = float64(r1.Demotions - r0.Demotions)
	v["resultcache.promotions"] = float64(r1.Promotions - r0.Promotions)
	if served > 0 {
		v["resultcache.refilter_us"] = float64(r1.RefilterWall-r0.RefilterWall) / float64(time.Microsecond) / float64(served)
	}
}
