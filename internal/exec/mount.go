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

// mountOp performs ALi for one file: a cursor over the engine's shared
// mount service plus the fused σ∘mount predicate, evaluated on every
// record batch as it arrives. The service owns extraction (single-flight
// across queries, streaming, budget-gated) and is the ingestion cache's
// one writer; the operator owns only what is query-specific. Mounted
// data is a dangling partial table: it vanishes with the query unless
// the cache policy retains it.
type mountOp struct {
	node    *plan.Mount
	env     *Env
	adapter catalog.FormatAdapter
	schema  []plan.ColInfo

	cur mountsvc.Cursor
}

func newMount(n *plan.Mount, env *Env) (Operator, error) {
	ad, ok := env.Adapters.Get(n.Adapter)
	if !ok {
		return nil, fmt.Errorf("exec: mount with unknown adapter %s", n.Adapter)
	}
	if env.MountSvc == nil {
		return nil, fmt.Errorf("exec: mount %s without a mount service", n.URI)
	}
	return &mountOp{node: n, env: env, adapter: ad, schema: n.Schema()}, nil
}

// Schema implements Operator.
func (m *mountOp) Schema() []plan.ColInfo { return m.schema }

// start attaches the cursor to the mount service.
func (m *mountOp) start() error {
	env := m.env
	cur, err := env.MountSvc.Mount(mountsvc.Request{
		URI:       m.node.URI,
		Ctx:       env.Ctx,
		Session:   env.Session,
		Adapter:   m.adapter,
		Span:      SpanNeed(plan.ColumnSpan(m.node.Pred, m.node.Binding+"."+m.adapter.DataSpanColumn())),
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
	if m.cur == nil {
		if err := m.start(); err != nil {
			return nil, err
		}
	}
	for {
		b, err := m.cur.Next()
		if b == nil || err != nil {
			return nil, err
		}
		// b is a copy-on-write share of the flight's window: it can be
		// emitted downstream as-is. A client mutating this query's result
		// materializes a private copy and can never corrupt another query
		// riding the same extraction, nor the cache entry it fills.
		if b, err = filterBatch(b, m.node.Pred); err != nil {
			return nil, err
		}
		if b.Len() > 0 {
			return b, nil
		}
	}
}

// Close implements Operator. A stream closed before draining detaches
// from the flight without affecting other queries riding it.
func (m *mountOp) Close() error {
	if m.cur != nil {
		return m.cur.Close()
	}
	return nil
}

// cacheScanOp serves previously mounted data from the ingestion cache,
// filtering the entry's batches one by one. If the entry was evicted
// between planning and execution it records the fallback and streams a
// fresh mount instead.
type cacheScanOp struct {
	node   *plan.CacheScan
	env    *Env
	schema []plan.ColInfo

	started  bool
	fallback Operator
	batches  []*vector.Batch // the entry's shares not yet served
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
	for len(c.batches) > 0 {
		b, err := filterBatch(c.batches[0], c.node.Pred)
		c.batches = c.batches[1:]
		if err != nil || b.Len() > 0 {
			return b, err
		}
	}
	return nil, nil
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
	// cached holds copy-on-write shares of the entry's batches: serving
	// them costs no copy, and a consumer mutating the served rows
	// materializes its own storage without touching the cache.
	c.batches = cached
	return nil
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
