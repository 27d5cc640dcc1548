package main

// Layer probes: each times one package's public entry point from outside,
// on the inputs a traced query actually touched — its SQL text, its files
// of interest, the batches those files yield, its materialized result.
// Every probe is a span under the query's root span, so the trace shows a
// query's three engine calls next to what each layer costs on its own.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/admission"
	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/ingest"
	"repro/internal/mountsvc"
	"repro/internal/mseed"
	"repro/internal/par"
	"repro/internal/plan"
	"repro/internal/resultcache"
	"repro/internal/seismic"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/vector"
)

// sample is a traced query kept for probing.
type sample struct {
	query int // query id its spans carry
	root  int // its root span
	idx   int // index into the load's Queries
	// files are its files of interest as Stage 1 reported them; the eager
	// engine has no such notion, so there the generator's list stands in.
	files []string
	ans   answer
}

const (
	// fileProbeBudget caps how many files get the probes that decode whole
	// files several times over; the cheap probes run on every sample.
	fileProbeBudget = 48
	// promoteProbeBudget caps the probes that write and read back a spill
	// file per sample.
	promoteProbeBudget = 48
	// repeat is how often a sub-microsecond operation runs inside one span.
	repeat = 64
)

type prober struct {
	in      *instance
	tr      *tracer
	dir     string
	adapter *seismic.Adapter
	cat     *catalog.Catalog
	store   *storage.Store
	svc     *mountsvc.Service
	results *resultcache.Cache

	filesLeft, promotesLeft int
	// flightOverheads holds, per probed file, the mount service's time to
	// deliver it minus the adapter's time to stream the same records.
	flightOverheads []time.Duration
	// indexes are the key indexes of the probe's own eager load.
	indexes []exec.IndexInfo
}

func newProber(in *instance, tr *tracer) (*prober, error) {
	dir, err := os.MkdirTemp(in.cfg.Workdir, "probe-")
	if err != nil {
		return nil, err
	}
	p := &prober{
		in: in, tr: tr, dir: dir,
		adapter:   seismic.NewAdapter(),
		cat:       catalog.New(),
		svc:       mountsvc.New(mountsvc.Config{RepoDir: in.fx.Dir}),
		results:   resultcache.New(resultcache.Config{}),
		filesLeft: fileProbeBudget, promotesLeft: promoteProbeBudget,
	}
	pool := storage.NewBufferPool(1<<14, storage.NoCost(), nil)
	if p.store, err = storage.Open(filepath.Join(dir, "db"), pool); err != nil {
		return nil, err
	}
	if err := ingest.EnsureTables(p.store, p.cat, p.adapter); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *prober) close() error {
	err := p.store.Close()
	if rmErr := os.RemoveAll(p.dir); err == nil {
		err = rmErr
	}
	return err
}

// measured times fn as a child of the sample's root span; fn reports how
// many operations, rows or bytes it covered.
func (p *prober) measured(name string, s sample, fn func() (int, error)) (time.Duration, error) {
	took, err := p.tr.timed(name, s.root, s.query, fn)
	if err != nil {
		return 0, fmt.Errorf("probe %s: %w", name, err)
	}
	return took, nil
}

// span is measured for a count known beforehand.
func (p *prober) span(name string, s sample, ops int, fn func() error) error {
	_, err := p.measured(name, s, func() (int, error) { return ops, fn() })
	return err
}

// sink keeps results of probed calls alive so they are not optimized out.
var sink any

// runtimeProbes times what does not depend on any query: the admission
// gate uncontended, the ordered fan-out with no work to do, and the
// up-front ingestion of the workload's mode into a scratch store.
func (p *prober) runtimeProbes() error {
	run := sample{query: noSpan, root: noSpan}
	const acquires = 20000
	gate := admission.New(admission.Config{BudgetBytes: 1 << 30})
	err := p.span("admission.acquire_release", run, acquires, func() error {
		for i := 0; i < acquires; i++ {
			if err := gate.Acquire(context.Background(), "probe", 1); err != nil {
				return err
			}
			gate.Release("probe", 1)
		}
		return nil
	})
	if err != nil {
		return err
	}

	const fanouts, items = 200, 64
	err = p.span("par.foreach", run, fanouts, func() error {
		for i := 0; i < fanouts; i++ {
			err := par.ForEachOrdered(items, p.in.nproc,
				func(i int) (int, error) { return i, nil },
				func(int, int) error { return nil })
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	uris := p.in.fx.URIs
	if !p.in.opts.Eager {
		return p.span("ingest.metadata", run, len(uris), func() error {
			_, err := ingest.LoadMetadataParallel(p.store, p.adapter, p.in.fx.Dir, uris, p.in.nproc)
			return err
		})
	}
	err = p.span("ingest.eager", run, int(p.in.fx.Samples), func() error {
		_, err := ingest.LoadEagerParallel(p.store, p.adapter, p.in.fx.Dir, uris, false, p.in.nproc)
		return err
	})
	if err != nil {
		return err
	}
	return p.span("ingest.index_build", run, 1, func() (err error) {
		p.indexes, _, err = ingest.BuildKeyIndexes(p.store, p.adapter)
		return err
	})
}

// queryProbes runs every probe that has an input on this sample.
func (p *prober) queryProbes(s sample) error {
	q := p.in.ld.Queries[s.idx]

	// The compile chain, on the query's own text.
	var stmt *sql.SelectStmt
	var optimized, normalized plan.Node
	var fp plan.Fingerprint
	err := p.span("sql.parse", s, 1, func() (err error) {
		stmt, err = sql.Parse(q.SQL)
		return err
	})
	if err != nil {
		return err
	}
	err = p.span("plan.bind_optimize", s, 1, func() error {
		bound, err := plan.Bind(stmt, p.cat)
		if err != nil {
			return err
		}
		optimized, err = plan.Optimize(bound, p.cat)
		return err
	})
	if err != nil {
		return err
	}
	err = p.span("plan.normalize_fingerprint", s, 1, func() (err error) {
		if normalized, err = plan.Normalize(optimized); err == nil {
			fp = plan.FingerprintOf(normalized)
		}
		return err
	})
	if err != nil {
		return err
	}
	p.span("plan.subsumption", s, 1, func() error {
		info := plan.SubsumptionInfoOf(normalized)
		sink = plan.Subsumes(info, info)
		return nil
	})

	if err := p.resultProbes(s, fp); err != nil {
		return err
	}
	for _, uri := range s.files {
		if p.filesLeft == 0 {
			break
		}
		p.filesLeft--
		if err := p.fileProbes(s, q, uri); err != nil {
			return err
		}
	}
	return nil
}

// resultProbes replays the query's materialized result the way the result
// cache's serve paths do.
func (p *prober) resultProbes(s sample, fp plan.Fingerprint) error {
	mat := s.ans.mat
	if mat == nil || mat.Rows() == 0 {
		return nil
	}
	mat.Freeze()
	err := p.span("exec.serve_cached", s, 1, func() error {
		served, err := exec.ServeCachedResult(mat, &exec.Env{})
		sink = served
		return err
	})
	if err != nil {
		return err
	}
	p.span("vector.share", s, repeat*len(mat.Batches), func() error {
		for i := 0; i < repeat; i++ {
			for _, b := range mat.Batches {
				sink = b.Share()
			}
		}
		return nil
	})

	p.results.Put(fp, "probe", mat, time.Hour)
	p.span("resultcache.get_hit", s, repeat, func() error {
		for i := 0; i < repeat; i++ {
			if _, ok := p.results.Get(fp); !ok {
				return fmt.Errorf("resident entry missed")
			}
		}
		return nil
	})

	if p.in.opts.ResultCacheBytes == 0 || p.promotesLeft == 0 {
		return nil
	}
	p.promotesLeft--
	// A one-byte RAM tier over a disk tier: storing a second entry demotes
	// the first, so the Get below is a promotion from a spill file.
	tiers := resultcache.New(resultcache.Config{MaxBytes: 1, SpillDir: p.dir})
	tiers.Put(fp, "probe", mat, time.Hour)
	tiers.Put(plan.Fingerprint{1}, "probe", fillerResult(mat), time.Hour)
	if tiers.Stats().Demotions == 0 {
		return fmt.Errorf("probe resultcache.promote: entry was not demoted")
	}
	return p.span("resultcache.promote", s, 1, func() error {
		if _, ok := tiers.Get(fp); !ok {
			return fmt.Errorf("demoted entry missed")
		}
		return nil
	})
}

// fillerResult is a one-row result of mat's schema.
func fillerResult(mat *exec.Materialized) *exec.Materialized {
	first := mat.Batches[0]
	return &exec.Materialized{Schema: mat.Schema, Batches: []*vector.Batch{first.Gather([]int{0})}}
}

// The schemas the operator probes scan: D as the adapter mounts it, and
// the two key columns of R.
var (
	dataSchema = []plan.ColInfo{
		{Table: "D", Name: "uri", Kind: vector.KindString},
		{Table: "D", Name: "record_id", Kind: vector.KindInt64},
		{Table: "D", Name: "sample_time", Kind: vector.KindTime},
		{Table: "D", Name: "sample_value", Kind: vector.KindFloat64},
	}
	recordSchema = []plan.ColInfo{
		{Table: "R", Name: "uri", Kind: vector.KindString},
		{Table: "R", Name: "record_id", Kind: vector.KindInt64},
	}
	dataKinds = []vector.Kind{vector.KindString, vector.KindInt64, vector.KindTime, vector.KindFloat64}
)

const (
	timeCol  = 2
	valueCol = 3
)

// fileProbes reads, decodes, mounts and spills one file of interest, then
// runs each operator over the batches the query's own mount yields.
func (p *prober) fileProbes(s sample, q query, uri string) error {
	path := filepath.Join(p.in.fx.Dir, uri)
	if err := p.span("mseed.scan_headers", s, 1, func() error {
		headers, err := mseed.ScanHeaders(path)
		sink = headers
		return err
	}); err != nil {
		return err
	}
	var records []catalog.RecordMeta
	if err := p.span("seismic.extract_metadata", s, 1, func() (err error) {
		_, records, err = p.adapter.ExtractMetadata(path, uri)
		return err
	}); err != nil {
		return err
	}
	if _, err := p.measured("mseed.decode", s, func() (samples int, err error) {
		decoded, err := mseed.ReadFile(path)
		for _, r := range decoded {
			samples += len(r.Samples)
		}
		return samples, err
	}); err != nil {
		return err
	}

	stream := func(name string, keep func(catalog.RecordMeta) bool) (time.Duration, error) {
		return p.measured(name, s, func() (rows int, err error) {
			err = p.adapter.MountStream(path, uri, keep, 0, func(b *vector.Batch) error {
				rows += b.Len()
				return nil
			})
			return rows, err
		})
	}
	direct, err := stream("seismic.mount_file", nil)
	if err != nil {
		return err
	}
	first := records[0].RecordID
	if _, err := stream("seismic.mount_one_record", func(rm catalog.RecordMeta) bool { return rm.RecordID == first }); err != nil {
		return err
	}

	// The mount as the query made it: through a mount service, restricted
	// to the query's window. Its batches are the operator probes' input.
	span := cache.FullSpan()
	if q.Hi > q.Lo {
		span = cache.Span{Lo: q.Lo, Hi: q.Hi}
		keep := func(rm catalog.RecordMeta) bool {
			lo, hi, known := p.adapter.RecordSpan(rm)
			return !known || (hi >= q.Lo && lo <= q.Hi)
		}
		if direct, err = stream("seismic.mount_window", keep); err != nil {
			return err
		}
	}
	var batches []*vector.Batch
	rows := 0
	flight, err := p.measured("mountsvc.mount", s, func() (int, error) {
		cur, err := p.svc.Mount(mountsvc.Request{URI: uri, Adapter: p.adapter, Span: span})
		if err != nil {
			return 0, err
		}
		defer cur.Close()
		for {
			b, err := cur.Next()
			if err != nil || b == nil {
				return rows, err
			}
			batches = append(batches, b)
			rows += b.Len()
		}
	})
	if err != nil {
		return err
	}
	p.flightOverheads = append(p.flightOverheads, flight-direct)
	if rows == 0 {
		return nil
	}
	return p.batchProbes(s, q, records, batches, rows)
}

// batchProbes runs the spill format, the operators, predicate evaluation
// and the vector primitives over one file's mounted batches.
func (p *prober) batchProbes(s sample, q query, records []catalog.RecordMeta, batches []*vector.Batch, rows int) error {
	data := &exec.Materialized{Schema: dataSchema, Batches: batches}
	data.Freeze()
	var bytes int64
	for _, b := range batches {
		bytes += b.Bytes()
	}

	spill := filepath.Join(p.dir, "probe.spill")
	err := p.span("storage.spill_write", s, int(bytes), func() error {
		return storage.WriteBatches(spill, dataKinds, batches, storage.NoCost(), nil)
	})
	if err != nil {
		return err
	}
	err = p.span("storage.spill_read", s, int(bytes), func() error {
		r, err := storage.OpenBatchReader(spill, storage.NoCost(), nil)
		if err != nil {
			return err
		}
		defer r.Close()
		for {
			if b, err := r.Next(); err != nil || b == nil {
				return err
			}
		}
	})
	if err != nil {
		return err
	}

	// Range predicates for the filter and comparison probes: the query's
	// own window where it has one, else the middle half of the file's time
	// range; and the middle of the value range.
	last := batches[len(batches)-1]
	tLo, tHi := batches[0].Cols[timeCol].Int64s()[0], last.Cols[timeCol].Int64s()[last.Len()-1]
	if windowed := q.Hi > q.Lo; windowed {
		tLo, tHi = q.Lo, q.Hi
	} else {
		quarter := (tHi - tLo) / 4
		tLo, tHi = tLo+quarter, tHi-quarter
	}
	timeRange := between(timeCol, "D.sample_time", vector.KindTime, vector.Time(tLo), vector.Time(tHi))
	valueRange := between(valueCol, "D.sample_value", vector.KindFloat64, vector.Float64(-50), vector.Float64(50))

	uris, ids := make([]string, len(records)), make([]int64, len(records))
	for i, r := range records {
		uris[i], ids[i] = r.URI, r.RecordID
	}
	recs := &exec.Materialized{Schema: recordSchema, Batches: []*vector.Batch{vector.NewBatch(vector.FromString(uris), vector.FromInt64(ids))}}
	recs.Freeze()
	scanD := &plan.ResultScan{Name: "d", Cols: dataSchema}
	scanR := &plan.ResultScan{Name: "r", Cols: recordSchema}
	run := func(name string, node plan.Node, d *exec.Materialized) (*exec.Materialized, error) {
		var out *exec.Materialized
		err := p.span(name, s, d.Rows(), func() (err error) {
			out, err = exec.Run(node, &exec.Env{Results: map[string]*exec.Materialized{"d": d, "r": recs}})
			return err
		})
		return out, err
	}

	// The engine filters inside the mount, so its join and aggregate see
	// only the window's rows; the probes get the same input.
	kept, err := run("exec.filter", &plan.Select{Pred: timeRange, Child: scanD}, data)
	if err != nil {
		return err
	}
	input := data
	if q.Hi > q.Lo {
		kept.Freeze()
		input = kept
	}
	if input.Rows() > 0 {
		value := &expr.Col{Index: valueCol, Name: "D.sample_value", K: vector.KindFloat64}
		join := &plan.Join{Left: scanR, Right: scanD,
			LeftKeys: []string{"R.uri", "R.record_id"}, RightKeys: []string{"D.uri", "D.record_id"}}
		agg := &plan.Aggregate{Child: scanD, Aggs: []plan.AggSpec{
			{Func: plan.AggAvg, Arg: value, Name: "avg"}, {Func: plan.AggMin, Arg: value, Name: "min"},
			{Func: plan.AggMax, Arg: value, Name: "max"}, {Func: plan.AggCount, Name: "count"}}}
		if _, err := run("exec.join", join, input); err != nil {
			return err
		}
		if _, err := run("exec.agg", agg, input); err != nil {
			return err
		}
	}
	if _, err := run("exec.sort", &plan.Sort{Keys: []plan.SortKey{{Index: valueCol}}, Child: scanD}, data); err != nil {
		return err
	}

	err = p.span("expr.compare", s, 2*rows, func() error {
		for _, b := range batches {
			for _, pred := range []expr.Expr{timeRange, valueRange} {
				v, err := pred.Eval(b)
				if err != nil {
					return err
				}
				sink = v
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	selections := make([][]int, len(batches))
	clones := make([]*vector.Batch, len(batches))
	perms := make([][]int, len(batches))
	gathered := 0
	for i, b := range batches {
		for r := 0; r < b.Len(); r += 2 {
			selections[i] = append(selections[i], r)
		}
		gathered += len(selections[i])
		clones[i] = b.Clone()
		perms[i] = make([]int, b.Len())
		for r := range perms[i] {
			perms[i][r] = b.Len() - 1 - r
		}
	}
	p.span("vector.gather", s, gathered, func() error {
		for i, b := range batches {
			sink = b.Gather(selections[i])
		}
		return nil
	})
	p.span("vector.permute", s, rows, func() error {
		for i, b := range clones {
			b.Permute(perms[i])
		}
		return nil
	})

	if p.indexes != nil {
		return p.indexProbe(s, records)
	}
	return nil
}

// between builds lo < col AND col < hi.
func between(index int, name string, kind vector.Kind, lo, hi vector.Value) expr.Expr {
	col := &expr.Col{Index: index, Name: name, K: kind}
	return &expr.Logic{Op: expr.OpAnd,
		L: &expr.Compare{Op: expr.Gt, L: col, R: &expr.Const{Val: lo}},
		R: &expr.Compare{Op: expr.Lt, L: col, R: &expr.Const{Val: hi}}}
}

// indexProbe looks every record of the file up in the eager store's
// foreign-key index D(uri, record_id), the lookup its index joins make.
func (p *prober) indexProbe(s sample, records []catalog.RecordMeta) error {
	for _, ix := range p.indexes {
		if ix.TableName != seismic.DataTable {
			continue
		}
		tbl := p.store.MustTable(seismic.DataTable)
		code, ok := tbl.Dict(tbl.ColumnIndex(ix.KeyColumns[0])).CodeIfPresent(records[0].URI)
		if !ok {
			return fmt.Errorf("probe index.lookup: %s is not in the eager store", records[0].URI)
		}
		return p.span("index.lookup", s, len(records), func() error {
			for _, r := range records {
				rows, err := ix.Index.Lookup(code, r.RecordID)
				if err != nil {
					return err
				}
				sink = rows
			}
			return nil
		})
	}
	return nil
}
