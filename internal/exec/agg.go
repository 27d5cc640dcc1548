package exec

import (
	"fmt"

	"repro/internal/plan"
	"repro/internal/vector"
)

// AggState is the partial state of one aggregate over one group. States
// support merging, which the operate-then-merge execution strategy (the
// paper's strategy (b)) uses to combine per-file partial aggregates.
type AggState interface {
	Add(v vector.Value)
	// AddVector is Add over every value of v in row order, read from v's
	// typed slice without boxing; the result is exactly that of the Adds.
	AddVector(v *vector.Vector)
	AddCount(n int64) // COUNT(*) over n rows
	Merge(other AggState)
	Result() vector.Value
}

// NewAggStates constructs one fresh state per spec.
func NewAggStates(specs []plan.AggSpec) []AggState {
	states := make([]AggState, len(specs))
	for i, spec := range specs {
		states[i] = NewAggState(spec)
	}
	return states
}

// NewAggState constructs the state for a spec.
func NewAggState(spec plan.AggSpec) AggState {
	var s AggState
	switch spec.Func {
	case plan.AggCount:
		s = &countState{}
	case plan.AggSum:
		s = &sumState{kind: argKind(spec)}
	case plan.AggAvg:
		s = &avgState{}
	case plan.AggMin:
		s = &minMaxState{min: true}
	case plan.AggMax:
		s = &minMaxState{}
	default:
		panic("exec: unknown aggregate " + spec.Func.String())
	}
	if spec.Distinct {
		s = &distinctState{inner: s, seen: make(map[vector.Value]bool)}
	}
	return s
}

func argKind(spec plan.AggSpec) vector.Kind {
	if spec.Arg == nil {
		return vector.KindInt64
	}
	return spec.Arg.Kind()
}

// sum adds xs to acc in row order, converting each value as
// Value.AsFloat / AsInt do.
func sum[A, T int64 | float64](acc A, xs []T) A {
	for _, x := range xs {
		acc += A(x)
	}
	return acc
}

// extreme folds xs into a running MIN (or MAX) as vector.Compare orders
// them: only a strictly smaller (larger) value replaces the current one,
// and float < and > are false against NaN just as Compare calls NaN
// equal to everything — so a leading NaN stays and a later NaN never wins.
// xs is not empty. One loop per direction keeps the per-value test to a
// single comparison.
func extreme[T int64 | float64 | string](cur T, set bool, xs []T, min bool) T {
	if !set {
		cur, xs = xs[0], xs[1:]
	}
	if min {
		for _, x := range xs {
			if x < cur {
				cur = x
			}
		}
		return cur
	}
	for _, x := range xs {
		if x > cur {
			cur = x
		}
	}
	return cur
}

type countState struct{ n int64 }

func (s *countState) Add(vector.Value)           { s.n++ }
func (s *countState) AddVector(v *vector.Vector) { s.n += int64(v.Len()) }
func (s *countState) AddCount(n int64)           { s.n += n }
func (s *countState) Merge(o AggState)           { s.n += o.(*countState).n }
func (s *countState) Result() vector.Value {
	return vector.Int64(s.n)
}

type sumState struct {
	kind vector.Kind
	i    int64
	f    float64
}

func (s *sumState) Add(v vector.Value) {
	if s.kind == vector.KindFloat64 {
		s.f += v.AsFloat()
	} else {
		s.i += v.AsInt()
	}
}
func (s *sumState) AddVector(v *vector.Vector) {
	switch float := s.kind == vector.KindFloat64; {
	case v.Kind() == vector.KindFloat64 && float:
		s.f = sum(s.f, v.Float64s())
	case v.Kind() == vector.KindFloat64:
		s.i = sum(s.i, v.Float64s())
	case float:
		s.f = sum(s.f, v.Int64s())
	default:
		s.i = sum(s.i, v.Int64s())
	}
}
func (s *sumState) AddCount(int64) {}
func (s *sumState) Merge(o AggState) {
	ot := o.(*sumState)
	s.i += ot.i
	s.f += ot.f
}
func (s *sumState) Result() vector.Value {
	if s.kind == vector.KindFloat64 {
		return vector.Float64(s.f)
	}
	return vector.Int64(s.i)
}

type avgState struct {
	sum float64
	n   int64
}

func (s *avgState) Add(v vector.Value) { s.sum += v.AsFloat(); s.n++ }
func (s *avgState) AddVector(v *vector.Vector) {
	if v.Kind() == vector.KindFloat64 {
		s.sum = sum(s.sum, v.Float64s())
	} else {
		s.sum = sum(s.sum, v.Int64s())
	}
	s.n += int64(v.Len())
}
func (s *avgState) AddCount(int64) {}
func (s *avgState) Merge(o AggState) {
	ot := o.(*avgState)
	s.sum += ot.sum
	s.n += ot.n
}
func (s *avgState) Result() vector.Value {
	if s.n == 0 {
		// The engine has no NULL; an empty average is reported as 0 (see
		// README limitations).
		return vector.Float64(0)
	}
	return vector.Float64(s.sum / float64(s.n))
}

type minMaxState struct {
	min bool
	val vector.Value
	set bool
}

func (s *minMaxState) Add(v vector.Value) {
	if !s.set {
		s.val, s.set = v, true
		return
	}
	c := vector.Compare(v, s.val)
	if (s.min && c < 0) || (!s.min && c > 0) {
		s.val = v
	}
}
func (s *minMaxState) AddVector(v *vector.Vector) {
	k := v.Kind()
	if v.Len() == 0 {
		return
	}
	switch {
	case k == vector.KindBool || (s.set && s.val.Kind != k):
		addEach(s, v)
		return
	case k == vector.KindFloat64:
		s.val.F = extreme(s.val.F, s.set, v.Float64s(), s.min)
	case k == vector.KindString:
		s.val.S = extreme(s.val.S, s.set, v.Strings(), s.min)
	default:
		s.val.I = extreme(s.val.I, s.set, v.Int64s(), s.min)
	}
	s.val.Kind, s.set = k, true
}
func (s *minMaxState) AddCount(int64) {}
func (s *minMaxState) Merge(o AggState) {
	ot := o.(*minMaxState)
	if ot.set {
		s.Add(ot.val)
	}
}
func (s *minMaxState) Result() vector.Value {
	if !s.set {
		return vector.Int64(0)
	}
	return s.val
}

type distinctState struct {
	inner AggState
	seen  map[vector.Value]bool
}

func (s *distinctState) Add(v vector.Value) {
	if s.seen[v] {
		return
	}
	s.seen[v] = true
	s.inner.Add(v)
}
func (s *distinctState) AddVector(v *vector.Vector) { addEach(s, v) }
func (s *distinctState) AddCount(n int64)           { s.inner.AddCount(n) }
func (s *distinctState) Merge(o AggState) {
	ot := o.(*distinctState)
	for v := range ot.seen {
		if !s.seen[v] {
			s.seen[v] = true
			s.inner.Add(v)
		}
	}
}
func (s *distinctState) Result() vector.Value { return s.inner.Result() }

// addEach is AddVector through Add, for the states without a kernel.
func addEach(s AggState, v *vector.Vector) {
	for r := 0; r < v.Len(); r++ {
		s.Add(v.Get(r))
	}
}

// AddBatch adds every row of one input batch to the aggregate states.
func AddBatch(specs []plan.AggSpec, states []AggState, b *vector.Batch) error {
	for i, spec := range specs {
		if spec.Arg == nil {
			states[i].AddCount(int64(b.Len()))
			continue
		}
		v, err := spec.Arg.Eval(b)
		if err != nil {
			return err
		}
		states[i].AddVector(v)
	}
	return nil
}

// aggregateOp is a blocking hash aggregation.
type aggregateOp struct {
	node     *plan.Aggregate
	child    Operator
	groupIdx []int
	schema   []plan.ColInfo
	done     bool
}

func newAggregate(n *plan.Aggregate, child Operator) (Operator, error) {
	cs := child.Schema()
	groupIdx := make([]int, len(n.GroupBy))
	for i, g := range n.GroupBy {
		idx := plan.FindColumn(cs, g)
		if idx < 0 {
			return nil, fmt.Errorf("exec: group-by column %s missing", g)
		}
		groupIdx[i] = idx
	}
	return &aggregateOp{node: n, child: child, groupIdx: groupIdx, schema: n.Schema()}, nil
}

// Schema implements Operator.
func (a *aggregateOp) Schema() []plan.ColInfo { return a.schema }

type aggGroup struct {
	keys   []vector.Value
	states []AggState
}

// Next implements Operator: it drains the child and emits one batch of
// groups.
func (a *aggregateOp) Next() (*vector.Batch, error) {
	if a.done {
		return nil, nil
	}
	a.done = true

	groups := make(map[uint64][]*aggGroup)
	var order []*aggGroup
	global := len(a.groupIdx) == 0
	if global {
		order = append(order, a.newGroup(nil))
	}

	for {
		b, err := a.child.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		n := b.Len()
		if n == 0 {
			continue
		}
		if global {
			if err := AddBatch(a.node.Aggs, order[0].states, b); err != nil {
				return nil, err
			}
			continue
		}
		// Pre-evaluate aggregate arguments over the batch.
		argVecs := make([]*vector.Vector, len(a.node.Aggs))
		for i, spec := range a.node.Aggs {
			if spec.Arg != nil {
				v, err := spec.Arg.Eval(b)
				if err != nil {
					return nil, err
				}
				argVecs[i] = v
			}
		}
		hashes := make([]uint64, n)
		for _, gi := range a.groupIdx {
			vector.HashVector(b.Cols[gi], hashes)
		}
		for row := 0; row < n; row++ {
			var g *aggGroup
			h := hashes[row]
			for _, cand := range groups[h] {
				if a.groupKeysEqual(cand, b, row) {
					g = cand
					break
				}
			}
			if g == nil {
				keys := make([]vector.Value, len(a.groupIdx))
				for i, gi := range a.groupIdx {
					keys[i] = b.Cols[gi].Get(row)
				}
				g = a.newGroup(keys)
				groups[h] = append(groups[h], g)
				order = append(order, g)
			}
			for i, spec := range a.node.Aggs {
				if spec.Arg == nil {
					g.states[i].AddCount(1)
				} else {
					g.states[i].Add(argVecs[i].Get(row))
				}
			}
		}
	}

	// Emit groups in first-seen order.
	cols := make([]*vector.Vector, len(a.schema))
	for i, ci := range a.schema {
		cols[i] = vector.New(ci.Kind, len(order))
	}
	for _, g := range order {
		for i := range a.groupIdx {
			cols[i].AppendValue(g.keys[i])
		}
		for i, st := range g.states {
			cols[len(a.groupIdx)+i].AppendValue(CoerceValue(st.Result(), a.schema[len(a.groupIdx)+i].Kind))
		}
	}
	return vector.NewBatch(cols...), nil
}

func (a *aggregateOp) newGroup(keys []vector.Value) *aggGroup {
	return &aggGroup{keys: keys, states: NewAggStates(a.node.Aggs)}
}

func (a *aggregateOp) groupKeysEqual(g *aggGroup, b *vector.Batch, row int) bool {
	for i, gi := range a.groupIdx {
		if !vector.Equal(g.keys[i], b.Cols[gi].Get(row)) {
			return false
		}
	}
	return true
}

// CoerceValue aligns a state result with the declared output kind (e.g.
// MIN over an empty TIMESTAMP column yields Int64(0), stored as TIME).
func CoerceValue(v vector.Value, want vector.Kind) vector.Value {
	if v.Kind == want {
		return v
	}
	switch want {
	case vector.KindFloat64:
		if v.IsNumeric() || v.Kind == vector.KindTime {
			return vector.Float64(v.AsFloat())
		}
	case vector.KindInt64:
		if v.IsNumeric() || v.Kind == vector.KindTime {
			return vector.Int64(v.AsInt())
		}
	case vector.KindTime:
		if v.Kind == vector.KindInt64 {
			return vector.Time(v.I)
		}
	}
	return v
}

// Close implements Operator.
func (a *aggregateOp) Close() error { return a.child.Close() }
