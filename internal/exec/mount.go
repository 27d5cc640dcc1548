package exec

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/mountsvc"
	"repro/internal/plan"
	"repro/internal/vector"
)

// mountOp performs ALi for one file: a thin cursor over the engine's
// shared mount service. The service owns extraction (single-flight
// across queries, streaming, budget-gated); the operator owns what is
// query-specific — evaluating the fused σ∘mount predicate on every
// record batch as it arrives, and tuple-granular cache retention of the
// rows inside the predicate's span. Mounted data is a dangling partial
// table: it vanishes with the query unless the cache policy retains it.
type mountOp struct {
	node    *plan.Mount
	env     *Env
	adapter catalog.FormatAdapter
	schema  []plan.ColInfo

	cur      mountsvc.Cursor
	started  bool
	finished bool

	// Tuple-granular retention: the rows inside retainSpan, inserted only
	// after the stream fully drains (a partial entry would serve wrong
	// answers to later queries). An entry must hold every row of the span
	// it claims, so when the fused predicate says more than its span,
	// start splits it: pred keeps the span conjuncts, which decide what
	// is retained, and rest the others, which the emitted rows must pass
	// as well. Otherwise pred is the whole predicate and rest is nil.
	retain     *Materialized
	retainSpan cache.Span
	pred, rest expr.Expr
}

func newMount(n *plan.Mount, env *Env) (Operator, error) {
	ad, ok := env.Adapters.Get(n.Adapter)
	if !ok {
		return nil, fmt.Errorf("exec: mount with unknown adapter %s", n.Adapter)
	}
	return &mountOp{node: n, env: env, adapter: ad, schema: n.Schema()}, nil
}

// Schema implements Operator.
func (m *mountOp) Schema() []plan.ColInfo { return m.schema }

// start attaches the cursor to the mount service.
func (m *mountOp) start() error {
	sp := plan.ColumnSpan(m.node.Pred, m.node.Binding+"."+m.adapter.DataSpanColumn())
	span := SpanNeed(sp)
	m.pred = m.node.Pred
	if m.env.Cache != nil &&
		m.env.Cache.Config().Policy != cache.NeverCache &&
		m.env.Cache.Config().Granularity == cache.TupleGranular {
		m.retain = &Materialized{Schema: m.schema}
		m.retainSpan = span
		if len(sp.Residual) > 0 {
			m.pred, m.rest = expr.JoinAnd(sp.Absorbed), expr.JoinAnd(sp.Residual)
		}
	}
	env := m.env
	cur, err := env.service().Mount(mountsvc.Request{
		URI:       m.node.URI,
		Ctx:       env.Ctx,
		Session:   env.Session,
		Adapter:   m.adapter,
		Span:      span,
		BatchRows: env.batchSize(),
		EstBytes:  m.node.EstBytes,
		Observe: func(d mountsvc.Delta) {
			env.addMountStats(func(ms *MountStats) {
				switch {
				case d.FileMounted:
					ms.FilesMounted++
					ms.BytesRead += d.BytesRead
					ms.RecordsPruned += d.RecordsPruned
					ms.RecordsMounted += d.RecordsMounted
					ms.AdmissionBytesSaved += d.AdmissionSaved
				case d.SingleFlight:
					ms.SingleFlightHits++
				case d.FromCache:
					ms.CacheHits++
				}
			})
		},
	})
	if err != nil {
		return fmt.Errorf("exec: mount %s: %w", m.node.URI, err)
	}
	m.cur = cur
	return nil
}

// Next implements Operator: pull a record batch from the service, apply
// the fused predicate, emit the survivors.
func (m *mountOp) Next() (*vector.Batch, error) {
	if !m.started {
		if err := m.start(); err != nil {
			return nil, err
		}
		m.started = true
	}
	for {
		if m.finished {
			return nil, nil
		}
		b, err := m.cur.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			m.finished = true
			if m.retain != nil {
				// Put takes its own share of the flattened retention
				// batches; no deep copy is needed even when Flatten
				// returned an emitted batch itself.
				m.env.Cache.Put(m.node.URI, m.retain.Flatten(), m.retainSpan)
			}
			return nil, nil
		}
		// b is a copy-on-write share of the flight's replay buffer: it
		// can be emitted downstream as-is. A client mutating this query's
		// result materializes a private copy and can never corrupt
		// another query riding the same extraction.
		filtered, err := filterBatch(b, m.pred)
		if err != nil {
			return nil, err
		}
		if m.retain != nil && filtered.Len() > 0 {
			// The retention buffer is a second owner of these rows: it
			// keeps its own handle so downstream mutations of the emitted
			// batch cannot reach the future cache entry.
			m.retain.Batches = append(m.retain.Batches, filtered.Share())
		}
		if filtered, err = filterBatch(filtered, m.rest); err != nil {
			return nil, err
		}
		if filtered.Len() == 0 {
			continue
		}
		return filtered, nil
	}
}

// Close implements Operator. A stream closed before draining skips
// tuple-granular retention (the entry would be incomplete) and detaches
// from the flight without affecting other queries riding it.
func (m *mountOp) Close() error {
	m.retain = nil
	if m.cur != nil {
		return m.cur.Close()
	}
	return nil
}

// cacheScanOp serves previously mounted data from the ingestion cache.
// If the entry was evicted between planning and execution it records the
// fallback and streams a fresh mount instead.
type cacheScanOp struct {
	node   *plan.CacheScan
	env    *Env
	schema []plan.ColInfo

	started  bool
	fallback Operator

	out *vector.Batch
	pos int
}

func newCacheScan(n *plan.CacheScan, env *Env) (Operator, error) {
	if env.Cache == nil {
		return nil, fmt.Errorf("exec: cache-scan of %s without a cache", n.URI)
	}
	return &cacheScanOp{node: n, env: env, schema: n.Schema()}, nil
}

// Schema implements Operator.
func (c *cacheScanOp) Schema() []plan.ColInfo { return c.schema }

// Next implements Operator.
func (c *cacheScanOp) Next() (*vector.Batch, error) {
	if !c.started {
		if err := c.load(); err != nil {
			return nil, err
		}
		c.started = true
	}
	if c.fallback != nil {
		return c.fallback.Next()
	}
	return emitChunk(c.out, &c.pos, c.env.batchSize()), nil
}

func (c *cacheScanOp) load() error {
	need := cache.FullSpan()
	if ad, ok := c.env.Adapters.Get(c.node.Adapter); ok {
		need = SpanNeed(plan.ColumnSpan(c.node.Pred, c.node.Binding+"."+ad.DataSpanColumn()))
	}
	cached, ok := c.env.Cache.Get(c.node.URI, need)
	if !ok {
		// Evicted since rule (1) decided f ∈ C: fall back to a streaming
		// mount, and record the miss so benchmark numbers can't
		// misattribute cache efficacy.
		c.env.addMountStats(func(ms *MountStats) {
			ms.CacheFallbacks++
		})
		mountNode := &plan.Mount{
			URI: c.node.URI, Adapter: c.node.Adapter,
			Binding: c.node.Binding, Def: c.node.Def, Pred: c.node.Pred,
			EstBytes: c.node.EstBytes,
		}
		op, err := newMount(mountNode, c.env)
		if err != nil {
			return err
		}
		c.fallback = op
		return nil
	}
	c.env.addMountStats(func(ms *MountStats) {
		ms.CacheHits++
	})
	// cached is a copy-on-write share of the entry: serving it (chunked
	// by emitChunk below) costs no copy, and a consumer mutating the
	// served rows materializes its own storage without touching the
	// cache.
	var err error
	c.out, err = filterBatch(cached, c.node.Pred)
	return err
}

// Close implements Operator.
func (c *cacheScanOp) Close() error {
	if c.fallback != nil {
		return c.fallback.Close()
	}
	return nil
}

// SpanNeed converts a span extraction into the currency of the ingestion
// cache and the mount service: the closed span a query needs of a file,
// or the whole file when nothing bounds it.
func SpanNeed(sp plan.Span) cache.Span {
	if !sp.Bounded() {
		return cache.FullSpan()
	}
	return cache.Span{Lo: sp.Lo, Hi: sp.Hi}
}

// filterBatch returns the rows of b passing pred (b itself when pred is
// nil or passes every row).
func filterBatch(b *vector.Batch, pred expr.Expr) (*vector.Batch, error) {
	if pred == nil {
		return b, nil
	}
	pv, err := pred.Eval(b)
	if err != nil {
		return nil, err
	}
	if sel := vector.SelFromBools(pv); len(sel) != b.Len() {
		return b.Gather(sel), nil
	}
	return b, nil
}

// emitChunk slices the materialized batch into batch-sized outputs.
func emitChunk(out *vector.Batch, pos *int, size int) *vector.Batch {
	if out == nil || *pos >= out.Len() {
		return nil
	}
	hi := *pos + size
	if hi > out.Len() {
		hi = out.Len()
	}
	b := out.Slice(*pos, hi)
	*pos = hi
	return b
}
