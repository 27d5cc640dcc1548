package exec

import (
	"fmt"

	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/vector"
)

// tableScan reads a stored table in batch-sized chunks through the
// buffer pool.
type tableScan struct {
	schema []plan.ColInfo
	table  *storage.Table
	cols   []int
	pos    int64
	rows   int64
	size   int64
}

func newTableScan(n *plan.Scan, env *Env) (Operator, error) {
	tbl, ok := env.Store.Table(n.TableName)
	if !ok {
		return nil, fmt.Errorf("exec: scan of missing table %s", n.TableName)
	}
	cols := make([]int, len(n.Def.Columns))
	for i, c := range n.Def.Columns {
		idx := tbl.ColumnIndex(c.Name)
		if idx < 0 {
			return nil, fmt.Errorf("exec: table %s lacks column %s", n.TableName, c.Name)
		}
		cols[i] = idx
	}
	return &tableScan{
		schema: n.Schema(),
		table:  tbl,
		cols:   cols,
		rows:   tbl.Rows(),
		size:   int64(env.batchSize()),
	}, nil
}

// Schema implements Operator.
func (s *tableScan) Schema() []plan.ColInfo { return s.schema }

// Next implements Operator.
func (s *tableScan) Next() (*vector.Batch, error) {
	if s.pos >= s.rows {
		return nil, nil
	}
	hi := s.pos + s.size
	if hi > s.rows {
		hi = s.rows
	}
	b, err := s.table.ReadBatch(s.cols, s.pos, hi)
	if err != nil {
		return nil, err
	}
	s.pos = hi
	return b, nil
}

// Close implements Operator.
func (s *tableScan) Close() error { return nil }

// filterOp applies a boolean predicate, emitting only qualifying rows.
type filterOp struct {
	child Operator
	pred  interface {
		Eval(*vector.Batch) (*vector.Vector, error)
	}
}

// Schema implements Operator.
func (f *filterOp) Schema() []plan.ColInfo { return f.child.Schema() }

// Next implements Operator.
func (f *filterOp) Next() (*vector.Batch, error) {
	for {
		b, err := f.child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		pred, err := f.pred.Eval(b)
		if err != nil {
			return nil, err
		}
		if pred.Kind() != vector.KindBool {
			return nil, fmt.Errorf("exec: filter predicate evaluated to %s", pred.Kind())
		}
		sel := vector.SelFromBools(pred)
		if len(sel) == 0 {
			continue
		}
		if len(sel) == b.Len() {
			return b, nil
		}
		return b.Gather(sel), nil
	}
}

// Close implements Operator.
func (f *filterOp) Close() error { return f.child.Close() }

// projectOp computes output expressions.
type projectOp struct {
	child Operator
	node  *plan.Project
}

// Schema implements Operator.
func (p *projectOp) Schema() []plan.ColInfo { return p.node.Schema() }

// Next implements Operator.
func (p *projectOp) Next() (*vector.Batch, error) {
	b, err := p.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	cols := make([]*vector.Vector, len(p.node.Exprs))
	for i, e := range p.node.Exprs {
		v, err := e.Eval(b)
		if err != nil {
			return nil, err
		}
		cols[i] = v
	}
	return vector.NewBatch(cols...), nil
}

// Close implements Operator.
func (p *projectOp) Close() error { return p.child.Close() }

// limitOp caps output rows.
type limitOp struct {
	child Operator
	n     int64
	seen  int64
}

// Schema implements Operator.
func (l *limitOp) Schema() []plan.ColInfo { return l.child.Schema() }

// Next implements Operator.
func (l *limitOp) Next() (*vector.Batch, error) {
	if l.seen >= l.n {
		return nil, nil
	}
	b, err := l.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	remain := l.n - l.seen
	if int64(b.Len()) > remain {
		b = b.Slice(0, int(remain))
	}
	l.seen += int64(b.Len())
	return b, nil
}

// Close implements Operator.
func (l *limitOp) Close() error { return l.child.Close() }

// unionOp concatenates its inputs in order.
type unionOp struct {
	schema []plan.ColInfo
	inputs []Operator
	cur    int
}

// Schema implements Operator.
func (u *unionOp) Schema() []plan.ColInfo { return u.schema }

// Next implements Operator.
func (u *unionOp) Next() (*vector.Batch, error) {
	for u.cur < len(u.inputs) {
		b, err := u.inputs[u.cur].Next()
		if err != nil {
			return nil, err
		}
		if b != nil {
			return b, nil
		}
		u.cur++
	}
	return nil, nil
}

// Close implements Operator.
func (u *unionOp) Close() error {
	var first error
	for _, in := range u.inputs {
		if err := in.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// resultScanOp replays a materialized result. The same result is
// replayed by every incremental-ingestion round, so emitted batches are
// copy-on-write shares: replaying a Qf result across K files costs K
// handle bumps, not K deep copies, and a downstream mutation materializes a private copy without corrupting
// the shared materialization (which the engine additionally freezes).
// A column-pruned result-scan shares only the columns it lists.
type resultScanOp struct {
	schema []plan.ColInfo
	mat    *Materialized
	cols   []int // positions in mat of a pruned scan's columns; nil: all
	pos    int
}

func newResultScan(n *plan.ResultScan, mat *Materialized) (Operator, error) {
	op := &resultScanOp{schema: n.Cols, mat: mat}
	if len(n.Cols) == len(mat.Schema) {
		return op, nil
	}
	op.cols = make([]int, len(n.Cols))
	for i, c := range n.Cols {
		if op.cols[i] = mat.Column(c.Qualified()); op.cols[i] < 0 {
			return nil, fmt.Errorf("exec: result-scan %s: no column %s", n.Name, c.Qualified())
		}
	}
	return op, nil
}

// Schema implements Operator.
func (r *resultScanOp) Schema() []plan.ColInfo { return r.schema }

// Next implements Operator.
func (r *resultScanOp) Next() (*vector.Batch, error) {
	if r.pos >= len(r.mat.Batches) {
		return nil, nil
	}
	b := r.mat.Batches[r.pos]
	r.pos++
	if r.cols != nil {
		b = pick(b, r.cols)
	}
	return b.Share(), nil
}

// Close implements Operator.
func (r *resultScanOp) Close() error { return nil }
