package exec

import (
	"fmt"
	"slices"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/vector"
)

// newJoin selects a join implementation: an index-nested-loop join when
// the left side is a base-table scan with a registered index on exactly
// the join key columns (the Ei baseline's path — the paper's "foreign
// key indexes ... brought into main memory to compute the joins"),
// otherwise a hash join that builds on the right input — unless the
// cardinality oracle proves the left input is smaller, in which case
// the build side flips (order-preserving: see hashJoin).
func newJoin(n *plan.Join, env *Env) (Operator, error) {
	if op, ok, err := tryIndexJoin(n, env); err != nil {
		return nil, err
	} else if ok {
		return op, nil
	}
	lk, rk, err := resolveKeys(n)
	if err != nil {
		return nil, err
	}
	left, err := Build(n.Left, env)
	if err != nil {
		return nil, err
	}
	right, err := Build(n.Right, env)
	if err != nil {
		return nil, err
	}
	j := &hashJoin{
		schema: n.Schema(), left: left, right: right,
		leftKeys: lk, rightKeys: rk, emit: n.Emit, batchSize: env.batchSize(),
	}
	if env.Card != nil && len(lk) > 0 {
		lrows, lok := env.Card.NodeRows(n.Left)
		rrows, rok := env.Card.NodeRows(n.Right)
		if lok && rok && lrows < rrows {
			env.addMountStats(func(ms *MountStats) { ms.JoinBuildFlips++ })
			j.buildLeft = true
		}
	}
	return j, nil
}

// resolveKeys locates the join keys in the two input schemas and rejects
// a pair of kinds the engine cannot compare (plan.Bind already refuses
// such a query; this guards hand-built plans).
func resolveKeys(n *plan.Join) (lk, rk []int, err error) {
	ls, rs := n.Left.Schema(), n.Right.Schema()
	for i := range n.LeftKeys {
		li := plan.FindColumn(ls, n.LeftKeys[i])
		ri := plan.FindColumn(rs, n.RightKeys[i])
		if li < 0 || ri < 0 {
			return nil, nil, fmt.Errorf("exec: join key %s = %s unresolvable", n.LeftKeys[i], n.RightKeys[i])
		}
		if err := expr.CheckComparable(ls[li].Kind, rs[ri].Kind); err != nil {
			return nil, nil, err
		}
		lk = append(lk, li)
		rk = append(rk, ri)
	}
	return lk, rk, nil
}

// hashJoin is an inner equi-join through a hash table over one input.
// By default it builds on the right and streams the left past the table.
// With buildLeft — chosen when the cardinality oracle proves the left
// side smaller — it builds on the left, probes with the whole right
// input and reorders the matches left-major, so it emits exactly the
// default join's row sequence, (left row, right row) ascending; only
// batch boundaries differ, which no consumer observes. The payoff is the
// smaller table, and an empty left finishes without draining (or
// mounting) the right. With no keys the join is a cross product.
//
// emit lists the positions of left ++ right the join outputs (nil: all
// of them); a column-pruned Stage-2 join gathers only the build-side
// columns its consumers read.
type hashJoin struct {
	schema    []plan.ColInfo
	left      Operator
	right     Operator
	leftKeys  []int
	rightKeys []int
	emit      []int
	buildLeft bool
	batchSize int

	built        bool
	lEmit, rEmit []int // per-side emitted columns; nil: all
	buildAll     *vector.Batch
	table        *keyTable

	// buildLeft only: the materialized right side and the matching row
	// pairs in left-major order, emitted batchSize at a time.
	rightAll   *vector.Batch
	lsel, rsel []int
	pos        int
}

// Schema implements Operator.
func (j *hashJoin) Schema() []plan.ColInfo { return j.schema }

func (j *hashJoin) build() error {
	j.built = true
	ls, rs := j.left.Schema(), j.right.Schema()
	if j.emit != nil {
		j.lEmit, j.rEmit = []int{}, []int{}
		for _, p := range j.emit {
			if p < len(ls) {
				j.lEmit = append(j.lEmit, p)
			} else {
				j.rEmit = append(j.rEmit, p-len(ls))
			}
		}
	}
	bop, bkeys, pschema, pkeys := j.right, j.rightKeys, ls, j.leftKeys
	if j.buildLeft {
		bop, bkeys, pschema, pkeys = j.left, j.leftKeys, rs, j.rightKeys
	}
	var err error
	if j.buildAll, err = drain(bop); err != nil || j.buildAll.Len() == 0 {
		return err // an empty build side never touches the probe side
	}
	if len(bkeys) > 0 {
		probeKinds := make([]vector.Kind, len(pkeys))
		for i, k := range pkeys {
			probeKinds[i] = pschema[k].Kind
		}
		j.table = newKeyTable(j.buildAll, bkeys, probeKinds)
	}
	if !j.buildLeft {
		return nil
	}
	if j.rightAll, err = drain(j.right); err != nil {
		return err
	}
	rrows, lrows, one := j.table.probe(j.rightAll, j.rightKeys)
	if one >= 0 { // every right row pairs with build row one
		lrows = slices.Repeat([]int{one}, j.rightAll.Len())
		rrows = make([]int, len(lrows))
		for i := range rrows {
			rrows[i] = i
		}
	}
	j.lsel, j.rsel = leftMajor(lrows, rrows, j.buildAll.Len())
	return nil
}

// Next implements Operator.
func (j *hashJoin) Next() (*vector.Batch, error) {
	if !j.built {
		if err := j.build(); err != nil {
			return nil, err
		}
	}
	// Inner join with an empty build side is empty: stop without
	// draining (or mounting) the probe side at all.
	if j.buildAll.Len() == 0 {
		return nil, nil
	}
	if j.buildLeft {
		if j.pos >= len(j.lsel) {
			return nil, nil
		}
		lo := j.pos
		j.pos = min(lo+j.batchSize, len(j.lsel))
		return j.emitRows(j.buildAll, j.lsel[lo:j.pos], false, j.rightAll, j.rsel[lo:j.pos]), nil
	}
	for {
		lb, err := j.left.Next()
		if err != nil || lb == nil {
			return nil, err
		}
		if lb.Len() == 0 {
			continue
		}
		var lsel, rsel []int
		one := -1
		if j.table == nil {
			lsel, rsel = crossSel(lb.Len(), j.buildAll.Len())
		} else {
			lsel, rsel, one = j.table.probe(lb, j.leftKeys)
		}
		if one >= 0 {
			// Const keys matching one build row: the probe batch passes
			// through and that row's emitted columns come out Const.
			return concatBatches(pick(lb, j.lEmit), constRow(pick(j.buildAll, j.rEmit), one, lb.Len())), nil
		}
		if len(lsel) > 0 {
			return j.emitRows(lb, lsel, true, j.buildAll, rsel), nil
		}
	}
}

// emitRows assembles one output batch from the row pairs (lsel[i],
// rsel[i]), carrying only the emitted columns of each side. lOwned says
// the left batch is a streamed probe batch the join owns.
func (j *hashJoin) emitRows(l *vector.Batch, lsel []int, lOwned bool, r *vector.Batch, rsel []int) *vector.Batch {
	return concatBatches(passThrough(pick(l, j.lEmit), lsel, lOwned), passThrough(pick(r, j.rEmit), rsel, false))
}

// Close implements Operator.
func (j *hashJoin) Close() error {
	lerr := j.left.Close()
	rerr := j.right.Close()
	if lerr != nil {
		return lerr
	}
	return rerr
}

// pick is the batch narrowed to the given columns (nil: all of them),
// sharing their handles.
func pick(b *vector.Batch, cols []int) *vector.Batch {
	if cols == nil {
		return b
	}
	out := &vector.Batch{Cols: make([]*vector.Vector, len(cols))}
	for i, c := range cols {
		out.Cols[i] = b.Cols[c]
	}
	return out
}

// constRow is row r of b repeated n times, as Const columns.
func constRow(b *vector.Batch, r, n int) *vector.Batch {
	out := &vector.Batch{Cols: make([]*vector.Vector, len(b.Cols))}
	for i, c := range b.Cols {
		out.Cols[i] = vector.Const(c.Get(r), n)
	}
	return out
}

// drain materializes an operator's whole output as one batch.
func drain(op Operator) (*vector.Batch, error) {
	mat := &Materialized{Schema: op.Schema()}
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return mat.Flatten(), nil
		}
		if b.Len() > 0 {
			mat.Batches = append(mat.Batches, b)
		}
	}
}

// crossSel pairs every left row with every right row, left-major.
func crossSel(ln, rn int) (lsel, rsel []int) {
	lsel = make([]int, 0, ln*rn)
	rsel = make([]int, 0, ln*rn)
	for i := 0; i < ln; i++ {
		for r := 0; r < rn; r++ {
			lsel = append(lsel, i)
			rsel = append(rsel, r)
		}
	}
	return lsel, rsel
}

// leftMajor reorders row pairs found right-major (each right row's left
// matches ascending) into left-major order by a stable counting sort on
// the left row.
func leftMajor(lrows, rrows []int, nLeft int) (lsel, rsel []int) {
	start := make([]int, nLeft+1)
	for _, l := range lrows {
		start[l+1]++
	}
	for i := 1; i <= nLeft; i++ {
		start[i] += start[i-1]
	}
	lsel, rsel = make([]int, len(lrows)), make([]int, len(lrows))
	for k, l := range lrows {
		p := start[l]
		start[l]++
		lsel[p], rsel[p] = l, rrows[k]
	}
	return lsel, rsel
}

func concatBatches(l, r *vector.Batch) *vector.Batch {
	cols := make([]*vector.Vector, 0, l.NumCols()+r.NumCols())
	cols = append(cols, l.Cols...)
	cols = append(cols, r.Cols...)
	return vector.NewBatch(cols...)
}

// passThrough is Gather minus the copy when the selection is the
// identity over the whole batch. owned says the caller holds the
// batch's single ownership and releases it (a streamed probe batch):
// the batch itself passes through. A retained batch (the materialized
// build side, reused across probes) passes through as a CoW share
// instead, so a downstream mutation copies rather than corrupting the
// copy the join keeps.
func passThrough(b *vector.Batch, sel []int, owned bool) *vector.Batch {
	if len(sel) != b.Len() {
		return b.Gather(sel)
	}
	for i, s := range sel {
		if s != i {
			return b.Gather(sel)
		}
	}
	if owned {
		return b
	}
	return b.Share()
}

// tryIndexJoin recognizes Join(Scan(a)[+σ], right) where table a carries
// an index on exactly the left join keys, and builds an
// index-nested-loop join: for every right row, the index supplies the
// matching rowIDs of a, which are fetched point-wise through the buffer
// pool. Cold runs pay random I/O for both index probes and row fetches —
// the Figure 3 cold-run behaviour of Ei.
func tryIndexJoin(n *plan.Join, env *Env) (Operator, bool, error) {
	type scanWithPred struct {
		scan *plan.Scan
		pred evaler
	}
	var sw scanWithPred
	switch t := n.Left.(type) {
	case *plan.Scan:
		sw.scan = t
	case *plan.Select:
		if inner, ok := t.Child.(*plan.Scan); ok {
			sw.scan = inner
			sw.pred = t.Pred
		}
	}
	if sw.scan == nil || len(n.LeftKeys) == 0 || len(n.LeftKeys) > 2 || n.Emit != nil {
		return nil, false, nil
	}
	bare := make([]string, len(n.LeftKeys))
	ls := sw.scan.Schema()
	for i, qk := range n.LeftKeys {
		idx := plan.FindColumn(ls, qk)
		if idx < 0 {
			return nil, false, nil
		}
		bare[i] = sw.scan.Def.Columns[idx].Name
	}
	info := env.lookupIndex(sw.scan.TableName, bare)
	if info == nil {
		return nil, false, nil
	}
	right, err := Build(n.Right, env)
	if err != nil {
		return nil, false, err
	}
	tbl, ok := env.Store.Table(sw.scan.TableName)
	if !ok {
		right.Close()
		return nil, false, fmt.Errorf("exec: index join over missing table %s", sw.scan.TableName)
	}
	_, rk, err := resolveKeys(n)
	if err != nil {
		right.Close()
		return nil, false, err
	}
	cols := make([]int, len(sw.scan.Def.Columns))
	for i, c := range sw.scan.Def.Columns {
		cols[i] = tbl.ColumnIndex(c.Name)
	}
	keyCols := make([]int, len(bare))
	for i, b := range bare {
		keyCols[i] = tbl.ColumnIndex(b)
	}
	return &indexJoin{
		schema: n.Schema(), info: info, table: tbl, right: right,
		rightKeys: rk, tableCols: cols, keyCols: keyCols,
		pred: sw.pred, batchSize: env.batchSize(),
	}, true, nil
}

type evaler interface {
	Eval(*vector.Batch) (*vector.Vector, error)
}

// indexJoin is the Ei baseline's physical join.
type indexJoin struct {
	schema    []plan.ColInfo
	info      *IndexInfo
	table     *storage.Table
	right     Operator
	rightKeys []int
	tableCols []int // storage positions of the scan's output columns
	keyCols   []int // storage positions of the indexed key columns
	pred      evaler
	batchSize int

	rightAll *vector.Batch
	rpos     int
	done     bool
	rowIDs   []int64 // the last lookup's result, reused by the next one
}

// Schema implements Operator.
func (j *indexJoin) Schema() []plan.ColInfo { return j.schema }

// Next implements Operator.
func (j *indexJoin) Next() (*vector.Batch, error) {
	if j.rightAll == nil {
		var err error
		if j.rightAll, err = drain(j.right); err != nil {
			return nil, err
		}
	}
	for !j.done {
		if j.rpos >= j.rightAll.Len() {
			j.done = true
			return nil, nil
		}
		rrow := j.rpos
		j.rpos++
		rowIDs, err := j.lookupRow(rrow)
		if err != nil {
			return nil, err
		}
		if len(rowIDs) == 0 {
			continue
		}
		lb, err := j.table.ReadRowsAt(j.tableCols, rowIDs) // retains no rowIDs
		if err != nil {
			return nil, err
		}
		if j.pred != nil {
			pv, err := j.pred.Eval(lb)
			if err != nil {
				return nil, err
			}
			sel := vector.SelFromBools(pv)
			if len(sel) == 0 {
				continue
			}
			lb = lb.Gather(sel)
		}
		// The one right row pairs with every looked-up row: each of its
		// columns is a Const of lb.Len() rows, never written out.
		rb := &vector.Batch{Cols: make([]*vector.Vector, len(j.rightAll.Cols))}
		for c, col := range j.rightAll.Cols {
			rb.Cols[c] = vector.Const(col.Get(rrow), lb.Len())
		}
		return concatBatches(lb, rb), nil
	}
	return nil, nil
}

// lookupRow probes the index with the key values of one right row. The
// result lives in j.rowIDs until the next call.
func (j *indexJoin) lookupRow(rrow int) ([]int64, error) {
	var keys [2]int64
	for i, rk := range j.rightKeys {
		v := j.rightAll.Cols[rk].Get(rrow)
		switch v.Kind {
		case vector.KindString:
			dict := j.table.Dict(j.keyCols[i])
			if dict == nil {
				return nil, fmt.Errorf("exec: index join over non-dictionary string column")
			}
			code, ok := dict.CodeIfPresent(v.S)
			if !ok {
				return nil, nil // value never stored: no matches
			}
			keys[i] = code
		case vector.KindInt64, vector.KindTime:
			keys[i] = v.I
		default:
			return nil, fmt.Errorf("exec: unsupported index key kind %s", v.Kind)
		}
	}
	var err error
	if len(j.rightKeys) == 1 {
		j.rowIDs, err = j.info.Index.LookupA(keys[0], j.rowIDs...)
	} else {
		j.rowIDs, err = j.info.Index.Lookup(keys[0], keys[1], j.rowIDs...)
	}
	return j.rowIDs, err
}

// Close implements Operator.
func (j *indexJoin) Close() error { return j.right.Close() }
