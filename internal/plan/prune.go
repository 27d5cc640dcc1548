package plan

import "repro/internal/expr"

// PruneColumns narrows a plan to the columns its consumers read. Walking
// top-down, each node learns which of its output columns its ancestors
// reference (predicates, join keys, aggregate arguments, group-by
// columns, projections, the final output); a ResultScan keeps only
// those, a Join emits only those (Emit), and a Project drops the rest
// of its expressions. Scans, mounts, cache-scans and unions keep their
// full schema: ingestion-cache entries and spill frames
// store whole rows. No node loses its last column, so row counts survive
// COUNT(*). The engine prunes the Stage-2 plan right after rule (1),
// once the fingerprint, subsumption summary and Qf were computed
// unpruned. The result must be re-bound with Resolve.
func PruneColumns(root Node) Node {
	return pruneCols(root, allOf(root.Schema()))
}

// pruneCols rewrites n so that its schema still holds the columns need
// marks (positions in n's schema); it may keep others.
func pruneCols(n Node, need []bool) Node {
	switch t := n.(type) {
	case *Select:
		childNeed := append([]bool(nil), need...)
		markRefs(childNeed, t.Child.Schema(), t.Pred)
		return &Select{Pred: t.Pred, Child: pruneCols(t.Child, childNeed)}
	case *Limit:
		return &Limit{N: t.N, Child: pruneCols(t.Child, need)}
	case *Sort: // positional keys: the child stays whole
		return &Sort{Keys: t.Keys, Child: pruneCols(t.Child, allOf(t.Child.Schema()))}
	case *Project:
		keep, cs := keepOne(need), t.Child.Schema()
		childNeed := make([]bool, len(cs))
		out := &Project{}
		for i, e := range t.Exprs {
			if keep[i] {
				out.Exprs, out.Names = append(out.Exprs, e), append(out.Names, t.Names[i])
				markRefs(childNeed, cs, e)
			}
		}
		out.Child = pruneCols(t.Child, childNeed)
		return out
	case *Aggregate:
		cs := t.Child.Schema()
		childNeed := make([]bool, len(cs))
		for _, g := range t.GroupBy {
			mark(childNeed, cs, g)
		}
		for _, a := range t.Aggs {
			if a.Arg != nil {
				markRefs(childNeed, cs, a.Arg)
			}
		}
		return &Aggregate{GroupBy: t.GroupBy, Aggs: t.Aggs, Child: pruneCols(t.Child, childNeed)}
	case *Join:
		if t.Emit != nil {
			return n
		}
		ls, rs := t.Left.Schema(), t.Right.Schema()
		emitNeed := keepOne(need)
		lneed := append([]bool(nil), emitNeed[:len(ls)]...)
		rneed := append([]bool(nil), emitNeed[len(ls):]...)
		for i := range t.LeftKeys {
			mark(lneed, ls, t.LeftKeys[i])
			mark(rneed, rs, t.RightKeys[i])
		}
		out := &Join{Left: pruneCols(t.Left, lneed), Right: pruneCols(t.Right, rneed),
			LeftKeys: t.LeftKeys, RightKeys: t.RightKeys}
		nls, nrs := out.Left.Schema(), out.Right.Schema()
		for p, c := range append(append([]ColInfo(nil), ls...), rs...) {
			switch {
			case !emitNeed[p]:
			case p < len(ls):
				out.Emit = append(out.Emit, FindColumn(nls, c.Qualified()))
			default:
				out.Emit = append(out.Emit, len(nls)+FindColumn(nrs, c.Qualified()))
			}
		}
		if len(out.Emit) == len(nls)+len(nrs) {
			out.Emit = nil // everything the children still carry
		}
		return out
	case *ResultScan:
		keep := keepOne(need)
		out := &ResultScan{Name: t.Name}
		for i, c := range t.Cols {
			if keep[i] {
				out.Cols = append(out.Cols, c)
			}
		}
		return out
	default:
		return n
	}
}

// keepOne is need, or need with its first position set when it marks
// nothing: a node with no columns would report zero rows.
func keepOne(need []bool) []bool {
	for _, b := range need {
		if b {
			return need
		}
	}
	out := make([]bool, len(need))
	if len(out) > 0 {
		out[0] = true
	}
	return out
}

func allOf(schema []ColInfo) []bool {
	out := make([]bool, len(schema))
	for i := range out {
		out[i] = true
	}
	return out
}

func mark(need []bool, schema []ColInfo, name string) {
	if i := FindColumn(schema, name); i >= 0 {
		need[i] = true
	}
}

func markRefs(need []bool, schema []ColInfo, e expr.Expr) {
	e.Walk(func(x expr.Expr) {
		if c, ok := x.(*expr.Col); ok {
			mark(need, schema, c.Name)
		}
	})
}
