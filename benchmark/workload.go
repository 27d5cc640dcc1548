package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// query is one generated request: the SQL text the engine sees, plus what
// the generator knows about it and the probes need — the repository files
// its predicates select and its sample_time window.
type query struct {
	SQL   string
	Files []string
	// Lo and Hi bound D.sample_time (exclusive, epoch ns); both zero means
	// the query reads whole files.
	Lo, Hi int64
	// Aggregates is set when the select list aggregates, clear when it
	// projects rows.
	Aggregates bool
	// Respelled marks a second spelling of an earlier query: same answer,
	// same plan fingerprint, different text.
	Respelled bool
}

// load is a workload instantiated for one seed and fixture.
type load struct {
	// Queries are the distinct requests; every one is answered once by the
	// reference engine before anything is timed.
	Queries []query
	// Block returns the next stretch of the request sequence as indexes
	// into Queries. A run is a whole number of blocks and every block has
	// the same composition, so per-query counts do not depend on how many
	// blocks fit into the measured time.
	Block func(rng *rand.Rand) []int
	// Warmup is how many requests of a block run untimed after Open.
	Warmup int
	// Options sizes the engine; workingSet is the total result bytes of
	// Queries, known once the reference engine has answered them.
	Options func(workingSet int64) options
}

// workload is one of the five named traffic shapes of ISSUE 12.
type workload struct {
	Name  string
	Why   string
	Shape fixtureShape
	// Clients is the number of closed-loop clients on a box with nproc
	// cores; each sends its next query when the previous one returns.
	Clients func(nproc int) int
	Build   func(fx *fixture, rng *rand.Rand, nproc int) *load
}

func oneClient(int) int { return 1 }

var workloads = []workload{
	{
		Name:    "zoom_cold",
		Why:     "selective 2-60 s windows with no cache: parse, plan, Stage 1, pruning and flight set-up are most of each query and Steim decode is a small share, so planning overhead must show here",
		Shape:   repoMain,
		Clients: oneClient,
		Build:   buildZoom,
	},
	{
		Name:    "scan_wide",
		Why:     "station-day aggregates over every sample of 3 files with no cache: read, decode, transform, join and aggregate are ~98 % of the time and planning is noise, so decode and operator work must show here",
		Shape:   repoMain,
		Clients: oneClient,
		Build:   buildScan,
	},
	{
		Name:    "session_cached",
		Why:     "Zipf zoom sessions over a result cache a third the size of the working set, with subsumption and a disk tier: fingerprint, probe, re-filter, demote and promote do the work and mounts are rare",
		Shape:   repoMain,
		Clients: oneClient,
		Build:   buildSessions,
	},
	{
		Name:    "clients_spill",
		Why:     "nproc concurrent sessions scanning a hot set under a one-flight mount budget with flight spilling: single-flight riders, spill replay and admission waits, the out-of-core cost of scan_wide",
		Shape:   repoMain,
		Clients: func(nproc int) int { return nproc },
		Build:   buildClients,
	},
	{
		Name:    "eager_store",
		Why:     "the eager baseline: set-up loads and indexes the whole small repository, then zoom queries run from column files through a buffer pool a quarter of their size, the write-then-scan path ALi avoids",
		Shape:   repoSmall,
		Clients: oneClient,
		Build:   buildEager,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

const (
	timeLayout = "2006-01-02T15:04:05.000"
	fromClause = "FROM F JOIN R ON F.uri = R.uri JOIN D ON R.uri = D.uri AND R.record_id = D.record_id"
)

// target is the part of the repository one query addresses.
type target struct {
	station, day int
	channel      int // -1 selects every channel
}

func (t target) files(fx *fixture) []string {
	if t.channel >= 0 {
		return []string{fx.uri(t.station, t.channel, t.day)}
	}
	out := make([]string, len(fx.Channels))
	for c := range fx.Channels {
		out[c] = fx.uri(t.station, c, t.day)
	}
	return out
}

// conjuncts are the WHERE terms selecting the target's files and, when
// length > 0, the sample_time window starting offset into the day's
// coverage. Without dayBounds the record-start terms of Figure 3 are left
// out: the metadata stage then returns the station's files of every day
// and only the planner's span proof keeps all but the target's from being
// mounted. Timestamps are whole milliseconds, the precision SQL literals
// carry.
func (t target) conjuncts(fx *fixture, dayBounds bool, offset, length time.Duration) (terms []string, lo, hi int64) {
	day := fx.Start.AddDate(0, 0, t.day)
	terms = append(terms, fmt.Sprintf("F.station = '%s'", fx.Stations[t.station].Code))
	if t.channel >= 0 {
		terms = append(terms, fmt.Sprintf("F.channel = '%s'", fx.Channels[t.channel]))
	}
	if dayBounds {
		terms = append(terms,
			fmt.Sprintf("R.start_time > '%s'", day.Format(timeLayout)),
			fmt.Sprintf("R.start_time < '%s'", day.Add(24*time.Hour-time.Millisecond).Format(timeLayout)))
	}
	if length > 0 {
		from := day.Add(fx.DayOffset + offset).Truncate(time.Millisecond)
		to := from.Add(length.Truncate(time.Millisecond))
		terms = append(terms,
			fmt.Sprintf("D.sample_time > '%s'", from.Format(timeLayout)),
			fmt.Sprintf("D.sample_time < '%s'", to.Format(timeLayout)))
		lo, hi = from.UnixNano(), to.UnixNano()
	}
	return terms, lo, hi
}

func selectSQL(columns string, terms []string) string {
	return "SELECT " + columns + " " + fromClause + " WHERE " + strings.Join(terms, " AND ")
}

const (
	avgColumns  = "AVG(D.sample_value)"
	projColumns = "D.sample_time, D.sample_value"
	scanColumns = "AVG(D.sample_value), MIN(D.sample_value), MAX(D.sample_value), COUNT(*)"
)

// dealer hands out the repository's station-days, and channels, in a
// seeded random order without repeats, reshuffling once all are out. However
// many targets a workload draws, they load every station, day and channel
// as evenly as that many can, and sessions drawn from fewer targets than
// there are station-days share no file; two seeds then differ in which
// target meets which window, not in how much the targets overlap.
type dealer struct {
	fx                    *fixture
	rng                   *rand.Rand
	stationDays, channels []int
}

func (d *dealer) target(allChannels bool) target {
	if len(d.stationDays) == 0 {
		d.stationDays = d.rng.Perm(len(d.fx.Stations) * d.fx.Days)
	}
	i := d.stationDays[0]
	d.stationDays = d.stationDays[1:]
	t := target{station: i / d.fx.Days, day: i % d.fx.Days, channel: -1}
	if !allChannels {
		if len(d.channels) == 0 {
			d.channels = d.rng.Perm(len(d.fx.Channels))
		}
		t.channel, d.channels = d.channels[0], d.channels[1:]
	}
	return t
}

// spreadOffset places a window of the given length in slot of slots equal
// parts of the day's coverage, at a random point within the part.
func spreadOffset(fx *fixture, rng *rand.Rand, slot, slots int, length time.Duration) time.Duration {
	return time.Duration((float64(slot) + rng.Float64()) / float64(slots) * float64(fx.Coverage-length))
}

// zoomQueries generates Figure-3 Q1/Q2-shaped requests in classes of
// perClass: AVG or projection; one channel or, for one class in allEvery,
// all three; and, with unbounded set, with or without the record-start day
// bounds. Within a class the window lengths are spread evenly over 2-60 s
// and their starts evenly over the day's coverage; only which length meets
// which start and which target is random, so two seeds decode nearly the
// same number of samples from nearly the same number of records and pages.
func zoomQueries(fx *fixture, rng *rand.Rand, perClass, allEvery int, unbounded bool) []query {
	classes := 2 * allEvery
	if unbounded {
		classes *= 2
	}
	out := make([]query, 0, classes*perClass)
	deal := dealer{fx: fx, rng: rng}
	for class := 0; class < classes; class++ {
		aggregates := class&1 == 0
		allChannels := (class>>1)%allEvery == allEvery-1
		dayBounds := class < 2*allEvery
		order, slot := rng.Perm(perClass), rng.Perm(perClass)
		for i := 0; i < perClass; i++ {
			length := 2*time.Second + time.Duration(float64(58*time.Second)*float64(order[i])/float64(perClass))
			t := deal.target(allChannels)
			offset := spreadOffset(fx, rng, slot[i], perClass, length)
			terms, lo, hi := t.conjuncts(fx, dayBounds, offset, length)
			columns := projColumns
			if aggregates {
				columns = avgColumns
			}
			out = append(out, query{
				SQL: selectSQL(columns, terms), Files: t.files(fx),
				Lo: lo, Hi: hi, Aggregates: aggregates,
			})
		}
	}
	return out
}

// permutationBlock visits every query once per block, in a fresh order.
func permutationBlock(n int) func(*rand.Rand) []int {
	return func(rng *rand.Rand) []int { return rng.Perm(n) }
}

func buildZoom(fx *fixture, rng *rand.Rand, nproc int) *load {
	// One query in four reads all channels: the median then sits among the
	// one-channel queries and the 95th percentile among the others, not on
	// the step between them, and planning stays about half of a query.
	queries := zoomQueries(fx, rng, 60, 4, true)
	return &load{
		Queries: queries,
		Block:   permutationBlock(len(queries)),
		Warmup:  len(queries) / 4,
		Options: func(int64) options {
			return options{Parallelism: nproc, PoolPages: quarterPool(fx.RepoBytes)}
		},
	}
}

// scanQueries are whole-file aggregates over n distinct station-days (all
// of them, where the fixture has fewer).
func scanQueries(fx *fixture, rng *rand.Rand, n int) []query {
	deal := dealer{fx: fx, rng: rng}
	var out []query
	for i := 0; i < min(n, len(fx.Stations)*fx.Days); i++ {
		t := deal.target(true)
		terms, _, _ := t.conjuncts(fx, true, 0, 0)
		out = append(out, query{SQL: selectSQL(scanColumns, terms), Files: t.files(fx), Aggregates: true})
	}
	return out
}

// coldPool is scan_wide's buffer pool in pages: the seven of the metadata
// tables, which every query touches and LRU therefore keeps, and the files
// of the last six scans. A scan then reads its files cold unless it was one
// of those six, one time in fifty. Through the quarter pool one scan in
// four found its pages left from the block before, how many was chance, and
// modeled I/O differed by up to 3.9 % between seeds.
const coldPool = 48

func buildScan(fx *fixture, rng *rand.Rand, nproc int) *load {
	queries := scanQueries(fx, rng, 32)
	return &load{
		Queries: queries,
		Block:   permutationBlock(len(queries)),
		Warmup:  len(queries) / 4,
		Options: func(int64) options {
			return options{Parallelism: nproc, PoolPages: coldPool}
		},
	}
}

// Session-workload geometry: a pool of sessionPool zoom sessions, visited
// visitsPerBlock times per block with Zipf(zipfExponent) frequencies.
const (
	sessionPool    = 120
	visitsPerBlock = 600
	zipfExponent   = 1.1
	// The result cache's RAM tier and its disk tier each hold a third of
	// the pool's result bytes, so the coldest third of the pool is in
	// neither and the warm third lives on disk.
	cacheShareOfWorkingSet = 3
	// The ingestion cache holds about 25 decoded files of repo_main, far
	// fewer than the cold sessions cycle through.
	ingestCacheBytes = 64 << 20
)

// A visit to a session asks its four windows, widest first, then goes
// back and forth over them and their respellings: indexes into the
// session's six texts (0-3 the windows, 4 and 5 the first two respelled).
// Only the first four can need the disk tier or a mount; the twenty
// repeats are exact hits in RAM. That keeps disk-tier traffic to a few
// percent of the queries, so the median and the 95th percentile both
// measure the RAM path and the file system's own latency — most of a
// promotion's time, and on a shared box the least steady part — moves
// queries_per_s but does not decide a percentile.
var visitPattern = []int{0, 1, 2, 3, 4, 2, 5, 3, 1, 0, 4, 2, 3, 5, 1, 3, 2, 4, 0, 3, 1, 5, 2, 4}

// buildSessions makes zoom sessions: one wide projection window, three
// nested narrower windows that the wide result subsumes, and respellings
// of the first two. A block visits session r about r^-1.1 of the time, its
// visits evenly spaced through the block from a starting point fixed by r.
// The schedule does not depend on the seed, which chooses where each
// session's windows lie: in a random order the number of visits that find
// their session already evicted varies like a Poisson count, and a run of a
// few hundred misses then differs from the next seed's by 3 % in memory
// allocated and modeled I/O. On a fixed schedule hits, re-filters,
// demotions, promotions and misses recur at the same rate in every block of
// every seed.
func buildSessions(fx *fixture, rng *rand.Rand, nproc int) *load {
	const perSession = 6
	var queries []query
	deal := dealer{fx: fx, rng: rng}
	slot := rng.Perm(sessionPool)
	for s := 0; s < sessionPool; s++ {
		t := deal.target(s%3 == 0)
		// Window lengths are a fixed function of the session's rank (a
		// golden-ratio sequence over coverage/27 … coverage/9), so every
		// seed has the same working set and the same sizes at the same
		// ranks; the seed chooses where the windows lie.
		_, spread := math.Modf(float64(s+1) * 0.6180339887)
		length := fx.Coverage/27 + time.Duration(spread*float64(fx.Coverage*2/27))
		offset := spreadOffset(fx, rng, slot[s], sessionPool, length)
		var session []query
		for level := 0; level < 4; level++ {
			terms, lo, hi := t.conjuncts(fx, true, offset, length)
			session = append(session, query{SQL: selectSQL(projColumns, terms), Files: t.files(fx), Lo: lo, Hi: hi})
			offset += length / 8
			length /= 2
		}
		for _, again := range []int{0, 1} {
			q := session[again]
			q.SQL = respell(q.SQL)
			q.Respelled = true
			session = append(session, q)
		}
		queries = append(queries, session...)
	}

	var total float64
	for r := 1; r <= sessionPool; r++ {
		total += math.Pow(float64(r), -zipfExponent)
	}
	type visit struct {
		at      float64 // position in the block, 0 to 1
		session int
	}
	var visits []visit
	for r := 1; r <= sessionPool; r++ {
		n := max(int(math.Round(visitsPerBlock*math.Pow(float64(r), -zipfExponent)/total)), 1)
		// A low-discrepancy sequence, and another than the lengths', so
		// that where a session starts says nothing about its size.
		_, first := math.Modf(float64(r) * 0.7548776662)
		for i := 0; i < n; i++ {
			visits = append(visits, visit{(first + float64(i)) / float64(n), r - 1})
		}
	}
	sort.SliceStable(visits, func(i, j int) bool { return visits[i].at < visits[j].at })
	order := make([]int, 0, len(visits)*len(visitPattern))
	for _, v := range visits {
		for _, k := range visitPattern {
			order = append(order, v.session*perSession+k)
		}
	}
	return &load{
		Queries: queries,
		Block:   func(*rand.Rand) []int { return order },
		Warmup:  len(order),
		Options: func(workingSet int64) options {
			tier := max(workingSet/cacheShareOfWorkingSet, 1)
			return options{
				Parallelism:          nproc,
				PoolPages:            quarterPool(fx.RepoBytes),
				ResultCacheBytes:     tier,
				ResultCacheDiskBytes: tier,
				Subsumption:          true,
				Spill:                true,
				IngestCacheBytes:     ingestCacheBytes,
			}
		},
	}
}

// respell reverses the WHERE conjuncts: a different text that normalizes
// to the same plan, so it must hit the entry the first spelling stored.
func respell(sql string) string {
	head, where, _ := strings.Cut(sql, " WHERE ")
	terms := strings.Split(where, " AND ")
	for i, j := 0, len(terms)-1; i < j; i, j = i+1, j-1 {
		terms[i], terms[j] = terms[j], terms[i]
	}
	return head + " WHERE " + strings.Join(terms, " AND ")
}

// buildClients draws every client's scans from one hot set of 8
// station-days. A flight lasts a few milliseconds of an 80 ms scan, so
// two clients share one only when they ask for the same file almost
// together; a larger set leaves a 2-core run with no riders at all.
func buildClients(fx *fixture, rng *rand.Rand, nproc int) *load {
	queries := scanQueries(fx, rng, 8)
	return &load{
		Queries: queries,
		Block:   permutationBlock(len(queries)),
		Warmup:  len(queries) / 4,
		Options: func(int64) options {
			return options{
				Parallelism: 1,
				PoolPages:   quarterPool(fx.RepoBytes),
				// The gate counts repository-file bytes: one and a half
				// files means a second flight waits for the first.
				MountBudgetBytes:    fx.FileBytes * 3 / 2,
				Spill:               true,
				SpillThresholdBytes: 256 << 10,
			}
		},
	}
}

// quarterPool sizes the buffer pool to a quarter of the bytes it fronts:
// the repository files mounts read through it, or the eager store's
// column and index files. With the default 1 GiB pool everything is hot
// after one touch and modeled I/O per query falls towards zero the longer
// a run lasts; a pool smaller than what it caches keeps a steady miss
// rate, the state an explorer of a repository larger than memory is in.
func quarterPool(bytes int64) int {
	const pageBytes = 64 << 10
	return max(int(bytes/4/pageBytes), 8)
}

// An eagerly loaded sample costs 32 bytes in D's column files and 24 in
// its foreign-key index.
const eagerBytesPerSample = 56

func buildEager(fx *fixture, rng *rand.Rand, nproc int) *load {
	// Day-bounded classes only: without the bounds the eager engine joins
	// every record of the station before it filters, which is seconds.
	// 400 queries: whether a window straddles a 64 KiB page of D's columns
	// is chance, and over 200 the pages read per query differed by 2 %
	// between seeds.
	queries := zoomQueries(fx, rng, 50, 4, false)
	return &load{
		Queries: queries,
		Block:   permutationBlock(len(queries)),
		Warmup:  len(queries) / 16,
		Options: func(int64) options {
			return options{
				Eager:       true,
				Parallelism: nproc,
				PoolPages:   quarterPool(fx.Samples * eagerBytesPerSample),
			}
		},
	}
}
