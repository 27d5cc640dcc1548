// Command explorer is an interactive SQL shell over a scientific file
// repository with two-stage query execution and ALi — the "data
// management tool that makes these file repositories accessible" the
// paper's introduction calls for.
//
// Usage:
//
//	explorer -repo /tmp/repo [-db /tmp/db] [-mode ali|ei] [-cache file|tuple|off]
//	         [-resultcache MB] [-subsume] [-session name] [-nostats]
//	         [-spilldir DIR] [-spillthreshold MB]
//	         [-cpuprofile FILE] [-memprofile FILE]
//
// -subsume turns on semantic result caching: a query whose predicate is
// provably narrower than a cached one is answered by re-filtering the
// frozen entry in memory, mounting nothing. It requires -resultcache.
//
// -spilldir gives the result cache (with -resultcache) a disk tier that
// persists under DIR across restarts — reopening the same -db and
// -spilldir serves repeat queries without executing anything.
// -spillthreshold bounds each mount flight's window to that many MiB:
// past it the extraction waits for its slowest reader. Flights never
// write to disk.
//
// -cpuprofile and -memprofile write a CPU profile of the whole session,
// engine start-up included, and an allocation profile taken when the
// shell exits, for `go tool pprof`.
//
// -nostats disables statistics-free Stage-2 planning (file pruning from
// the frozen Qf result, hash-join build sides, honest admission
// sizing) — the A/B switch for demonstrating what the planner saves.
//
// Shell commands:
//
//	\plan <sql>   show the optimized two-stage plan without executing
//	\stage <sql>  run only the first stage and show the breakpoint
//	\multi <sql>  multi-stage execution: ingest file-by-file, show partials
//	\tables       list catalog tables
//	\stats        session statistics plus the engine's mount-service
//	              (admission gate, per-session), ingestion-cache,
//	              result-cache (including its disk tier) and
//	              statistics-free-planner counters
//	\quit         exit
//
// Any other input is executed as SQL.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/unit"
)

// sessionName identifies this shell to the engine's admission gate and
// result cache: with several explorers sharing one engine (or one
// database server embedding it), \stats breaks down per name.
var sessionName string

func main() {
	var (
		repoDir  = flag.String("repo", "", "repository directory (required)")
		dbDir    = flag.String("db", "", "database directory (default: temp)")
		mode     = flag.String("mode", "ali", "ingestion mode: ali or ei")
		cacheCfg = flag.String("cache", "off", "ingestion cache: off, file or tuple")
		budget   = flag.Duration("budget", 0, "abort queries whose estimated cost exceeds this (0 = off)")
		rcacheMB = flag.Int64("resultcache", 0, "result-cache budget in MiB (0 = off, -1 = unlimited)")
		subsume  = flag.Bool("subsume", false, "answer narrower queries by re-filtering wider cached results (requires -resultcache)")
		sessFlag = flag.String("session", "explorer", "session identity for the mount service's per-session admission stats")
		nostats  = flag.Bool("nostats", false, "disable statistics-free Stage-2 planning (pruning, build sides, honest admission)")
		spillDir = flag.String("spilldir", "", "directory for the result cache's disk tier, persisted across restarts")
		spillMB  = flag.Int64("spillthreshold", 0, "window size of a mount flight in MiB: past it the extraction waits for its slowest reader (0 = unbounded)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the session to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()
	sessionName = *sessFlag
	if *repoDir == "" {
		fmt.Fprintln(os.Stderr, "explorer: -repo is required")
		os.Exit(2)
	}
	if *dbDir == "" {
		d, err := os.MkdirTemp("", "explorer-db-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "explorer:", err)
			os.Exit(1)
		}
		defer os.RemoveAll(d)
		*dbDir = d
	}
	opts := core.Options{RepoDir: *repoDir, DBDir: *dbDir}
	switch *mode {
	case "ali":
		opts.Mode = core.ModeALi
	case "ei":
		opts.Mode = core.ModeEi
	default:
		fmt.Fprintln(os.Stderr, "explorer: -mode must be ali or ei")
		os.Exit(2)
	}
	switch *cacheCfg {
	case "file":
		opts.Cache = cache.Config{Policy: cache.LRU, Granularity: cache.FileGranular}
	case "tuple":
		opts.Cache = cache.Config{Policy: cache.LRU, Granularity: cache.TupleGranular}
	case "off":
	default:
		fmt.Fprintln(os.Stderr, "explorer: -cache must be off, file or tuple")
		os.Exit(2)
	}
	switch {
	case *rcacheMB > 0:
		opts.ResultCacheBytes = *rcacheMB << 20
	case *rcacheMB < 0:
		opts.ResultCacheBytes = -1
	}
	opts.ResultCacheSubsumption = *subsume
	if *nostats {
		opts.StatsPlanning = core.StatsPlanningOff
	}
	opts.SpillDir = *spillDir
	opts.SpillThresholdBytes = *spillMB << 20

	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "explorer:", err)
		os.Exit(1)
	}
	defer stopProfiles()

	fmt.Printf("opening %s repository (%s mode)...\n", *repoDir, opts.Mode)
	eng, err := core.Open(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "explorer:", err)
		stopProfiles()
		os.Exit(1)
	}
	defer eng.Close()
	rep := eng.Report()
	fmt.Printf("ready in %v (wall) + %v (modeled I/O): %d files, %d records of metadata\n",
		rep.Wall.Round(time.Millisecond), rep.ModeledIO.Round(time.Millisecond),
		rep.Metadata.Files, rep.Metadata.Records)

	var policy explore.BudgetPolicy
	if *budget > 0 {
		policy = explore.MaxCost(*budget)
		fmt.Printf("budget policy: abort when estimated cost exceeds %v\n", *budget)
	}
	session := explore.NewSession(policy)

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	fmt.Print("explorer> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == `\quit` || line == `\q`:
			return
		case line == `\tables`:
			for _, name := range eng.Catalog().Tables() {
				def, _ := eng.Catalog().Table(name)
				cols := make([]string, len(def.Columns))
				for i, c := range def.Columns {
					cols[i] = c.Name + " " + c.Kind.String()
				}
				fmt.Printf("  %s (%s): %s\n", name, def.Kind, strings.Join(cols, ", "))
			}
		case line == `\stats`:
			fmt.Print(session.Summary())
			printEngineStats(eng)
		case strings.HasPrefix(line, `\plan `):
			showPlan(eng, strings.TrimPrefix(line, `\plan `))
		case strings.HasPrefix(line, `\stage `):
			showStage(eng, strings.TrimPrefix(line, `\stage `))
		case strings.HasPrefix(line, `\multi `):
			runMulti(eng, strings.TrimPrefix(line, `\multi `))
		default:
			runSQL(eng, session, line)
		}
		fmt.Print("explorer> ")
	}
}

// startProfiles starts a CPU profile into cpuPath and returns the
// function that stops it and writes an allocation profile into memPath.
// An empty path skips that profile.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "explorer: -cpuprofile:", err)
			}
		}
		if memPath != "" {
			if err := writeAllocProfile(memPath); err != nil {
				fmt.Fprintln(os.Stderr, "explorer: -memprofile:", err)
			}
		}
	}, nil
}

func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // bring the profile up to date with the last allocations
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printEngineStats renders the engine-wide counters: the shared mount
// service (single-flight extraction, the FIFO admission gate with its
// per-session breakdown), the ingestion cache, and the result cache.
func printEngineStats(eng *core.Engine) {
	ms := eng.MountService().Stats()
	fmt.Printf("mount service: %d flights started, %d single-flight joins, %d cache serves, %d cancelled; in-flight %s (peak %s), replay %s (peak %s)\n",
		ms.FlightsStarted, ms.SingleFlightHits, ms.CacheServes, ms.FlightsCancelled,
		unit.FormatBytes(ms.InFlightBytes), unit.FormatBytes(ms.PeakInFlightBytes),
		unit.FormatBytes(ms.ReplayBytes), unit.FormatBytes(ms.PeakReplayBytes))
	fmt.Printf("admission gate: queue depth %d, %d waits, %d cancelled, %d starvation-avoided\n",
		ms.QueueDepth, ms.BudgetWaits, ms.BudgetCancelled, ms.StarvationAvoided)
	printPerSession("  session", ms.PerSession)
	cs := eng.Cache().Stats()
	fmt.Printf("ingestion cache: %d entries (%s), %d hits, %d misses, %d evictions\n",
		cs.Entries, unit.FormatBytes(cs.BytesResident), cs.Hits, cs.Misses, cs.Evictions)
	if rc := eng.ResultCache(); rc != nil {
		rs := rc.Stats()
		fmt.Printf("result cache: %d entries (%s), %d hits, %d riders, %d misses; %d stores, %d rejected, %d evictions; epoch %d (%d invalidated)\n",
			rs.Entries, unit.FormatBytes(rs.BytesResident), rs.Hits, rs.Riders, rs.Misses,
			rs.Stores, rs.RejectedStores, rs.Evictions, rs.Epoch, rs.Invalidations)
		fmt.Printf("  subsumption: %d probes, %d hits, %s re-execution avoided, %v re-filtering\n",
			rs.SubsumptionProbes, rs.SubsumptionHits,
			unit.FormatBytes(rs.SubsumptionBytesSaved), rs.RefilterWall.Round(time.Microsecond))
		fmt.Printf("  disk tier: %d entries (%s) on disk, %d demotions, %d promotions, %d disk evictions, %d warmed from a previous run\n",
			rs.DiskEntries, unit.FormatBytes(rs.BytesOnDisk),
			rs.Demotions, rs.Promotions, rs.DiskEvictions, rs.WarmedFromDisk)
	} else {
		fmt.Println("result cache: disabled (run with -resultcache to enable)")
	}
	ps := eng.PlannerStats()
	fmt.Printf("stats planning: %d files (%d records, %s) pruned before mounting; %d build-side flips; admission charged %s under worst case\n",
		ps.PrunedFiles, ps.PrunedRecords, unit.FormatBytes(ps.BytesNotMounted),
		ps.JoinBuildFlips, unit.FormatBytes(ps.AdmissionBytesSaved))
}

// printPerSession renders a per-session admission breakdown, sorted by
// session name for stable output.
func printPerSession(label string, per map[string]admission.SessionStats) {
	names := make([]string, 0, len(per))
	for name := range per {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := per[name]
		display := name
		if display == "" {
			display = "(anonymous)"
		}
		fmt.Printf("%s %s: held %s (peak %s), %d acquires, %d waits (total %v, max %v), %d cancelled\n",
			label, display, unit.FormatBytes(s.HeldBytes), unit.FormatBytes(s.PeakHeldBytes),
			s.Acquires, s.Waits, s.WaitTotal.Round(time.Microsecond), s.WaitMax.Round(time.Microsecond),
			s.Cancelled)
	}
}

func showPlan(eng *core.Engine, sql string) {
	p, err := eng.PrepareAs(context.Background(), sessionName, sql)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(p.PlanString())
}

func showStage(eng *core.Engine, sql string) {
	p, err := eng.PrepareAs(context.Background(), sessionName, sql)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	bp, err := p.Stage1()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if bp.Done() {
		fmt.Println("answered entirely in the first stage:")
		fmt.Print(bp.Result().Format(10))
		return
	}
	fmt.Println("breakpoint reached; files of interest:")
	for _, f := range bp.FilesOfInterest() {
		mark := ""
		if f.Cached {
			mark = " (cached)"
		}
		fmt.Printf("  %s%s\n", f.URI, mark)
	}
	fmt.Println("estimate:", bp.Est.String())
	fmt.Println("(not proceeding; run the query without \\stage to execute both stages)")
}

func runSQL(eng *core.Engine, session *explore.Session, sql string) {
	rec := explore.Record{SQL: sql, At: time.Now()}
	p, err := eng.PrepareAs(context.Background(), sessionName, sql)
	if err != nil {
		fmt.Println("error:", err)
		rec.Err = err
		session.Log(rec)
		return
	}
	start := time.Now()
	bp, err := p.Stage1()
	if err != nil {
		fmt.Println("error:", err)
		rec.Err = err
		session.Log(rec)
		return
	}
	var res *core.Result
	if bp.Done() {
		res = bp.Result()
	} else {
		rec.Estimate = bp.Est
		if session.Decide(bp.Est) == explore.Abort {
			rec.Decision = explore.Abort
			session.Log(rec)
			fmt.Println("aborted at breakpoint:", bp.Est.String())
			return
		}
		res, err = bp.Proceed()
		if err != nil {
			fmt.Println("error:", err)
			rec.Err = err
			session.Log(rec)
			return
		}
	}
	rec.Rows = res.Rows()
	rec.Wall = time.Since(start)
	session.Log(rec)
	fmt.Print(res.Format(20))
	st := res.Stats
	if st.ServedFromResultCache {
		how := "fingerprint hit"
		switch {
		case st.CoalescedRider:
			how = "rode a concurrent identical query"
		case st.ServedBySubsumption:
			how = "served by subsumption of " + st.SubsumedFrom.Short()
		}
		fmt.Printf("%d rows; served from the result cache (%s, %s shared) in %v\n",
			res.Rows(), how, unit.FormatBytes(st.Mounts.ResultCacheBytes),
			st.Stage1Wall.Round(time.Microsecond))
	} else {
		fmt.Printf("%d rows; stage1 %v, stage2 %v (modeled %v); %d files of interest, %d mounted, %d cache hits\n",
			res.Rows(), st.Stage1Wall.Round(time.Microsecond), st.Stage2Wall.Round(time.Microsecond),
			st.Modeled().Round(time.Microsecond),
			st.FilesOfInterest, st.Mounts.FilesMounted, st.Mounts.CacheHits)
	}
}

// runMulti executes a query with multi-stage ingestion, printing the
// partial answer after every ingestion round.
func runMulti(eng *core.Engine, sql string) {
	p, err := eng.PrepareAs(context.Background(), sessionName, sql)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	bp, err := p.Stage1()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if bp.Done() {
		fmt.Println("answered in the first stage:")
		fmt.Print(bp.Result().Format(10))
		return
	}
	res, err := bp.ProceedIncremental(1, func(pt core.Partial) bool {
		vals := make([]string, len(pt.Values))
		for i, v := range pt.Values {
			vals[i] = v.String()
		}
		fmt.Printf("  after %d/%d files: %s  [%v]\n",
			pt.FilesProcessed, pt.FilesTotal, strings.Join(vals, ", "),
			pt.Elapsed.Round(time.Millisecond))
		return true
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(res.Format(10))
}
