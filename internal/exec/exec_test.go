package exec

import (
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/vector"
)

// testEnv builds a store with a small metadata-ish table and returns the
// environment plus the catalog def.
func testEnv(t *testing.T) (*Env, catalog.TableDef) {
	t.Helper()
	pool := storage.NewBufferPool(256, storage.NoCost(), nil)
	store, err := storage.Open(t.TempDir(), pool)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	def := catalog.TableDef{
		Name: "T", Kind: catalog.Metadata,
		Columns: []storage.Column{
			{Name: "id", Kind: vector.KindInt64},
			{Name: "grp", Kind: vector.KindString},
			{Name: "val", Kind: vector.KindFloat64},
		},
	}
	tbl, err := store.Create("T", def.Columns)
	if err != nil {
		t.Fatal(err)
	}
	app, _ := tbl.NewAppender()
	ids := make([]int64, 100)
	grps := make([]string, 100)
	vals := make([]float64, 100)
	for i := range ids {
		ids[i] = int64(i)
		grps[i] = []string{"x", "y"}[i%2]
		vals[i] = float64(i) * 1.5
	}
	app.Append(vector.NewBatch(vector.FromInt64(ids), vector.FromString(grps), vector.FromFloat64(vals)))
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	env := &Env{
		Store:    store,
		Adapters: catalog.NewRegistry(),
		Results:  make(map[string]*Materialized),
		Mounts:   &MountStats{},
	}
	return env, def
}

func scanNode(def catalog.TableDef) *plan.Scan {
	return &plan.Scan{TableName: def.Name, Binding: def.Name, Def: def}
}

func col(schema []plan.ColInfo, name string) *expr.Col {
	idx := plan.FindColumn(schema, name)
	return &expr.Col{Index: idx, Name: name, K: schema[idx].Kind}
}

func TestScanAllRows(t *testing.T) {
	env, def := testEnv(t)
	mat, err := Run(scanNode(def), env)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Rows() != 100 {
		t.Fatalf("rows = %d", mat.Rows())
	}
	flat := mat.Flatten()
	if flat.Cols[0].Int64s()[42] != 42 {
		t.Error("scan data wrong")
	}
}

func TestFilterAndProject(t *testing.T) {
	env, def := testEnv(t)
	scan := scanNode(def)
	schema := scan.Schema()
	sel := &plan.Select{
		Pred:  &expr.Compare{Op: expr.Ge, L: col(schema, "T.id"), R: &expr.Const{Val: vector.Int64(90)}},
		Child: scan,
	}
	proj := &plan.Project{
		Exprs: []expr.Expr{col(schema, "T.val")},
		Names: []string{"v"},
		Child: sel,
	}
	mat, err := Run(proj, env)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Rows() != 10 {
		t.Fatalf("rows = %d, want 10", mat.Rows())
	}
	if mat.Flatten().Cols[0].Float64s()[0] != 135 {
		t.Error("projection wrong")
	}
}

func TestHashJoinAgainstSelf(t *testing.T) {
	env, def := testEnv(t)
	left := scanNode(def)
	right := &plan.Scan{TableName: def.Name, Binding: "U", Def: def}
	j := &plan.Join{
		Left: left, Right: right,
		LeftKeys: []string{"T.id"}, RightKeys: []string{"U.id"},
	}
	mat, err := Run(j, env)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Rows() != 100 {
		t.Fatalf("self equi-join rows = %d, want 100", mat.Rows())
	}
	if len(mat.Schema) != 6 {
		t.Errorf("join schema width = %d", len(mat.Schema))
	}
}

func TestCrossJoin(t *testing.T) {
	env, def := testEnv(t)
	left := scanNode(def)
	right := &plan.Scan{TableName: def.Name, Binding: "U", Def: def}
	sel := &plan.Select{ // 2 rows on each side
		Pred:  &expr.Compare{Op: expr.Lt, L: col(left.Schema(), "T.id"), R: &expr.Const{Val: vector.Int64(2)}},
		Child: left,
	}
	rsel := &plan.Select{
		Pred:  &expr.Compare{Op: expr.Lt, L: col(right.Schema(), "U.id"), R: &expr.Const{Val: vector.Int64(3)}},
		Child: right,
	}
	j := &plan.Join{Left: sel, Right: rsel}
	mat, err := Run(j, env)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Rows() != 6 {
		t.Errorf("cross join rows = %d, want 6", mat.Rows())
	}
}

func TestAggregateGlobal(t *testing.T) {
	env, def := testEnv(t)
	scan := scanNode(def)
	schema := scan.Schema()
	agg := &plan.Aggregate{
		Aggs: []plan.AggSpec{
			{Func: plan.AggCount, Name: "n"},
			{Func: plan.AggAvg, Arg: col(schema, "T.val"), Name: "avg_v"},
			{Func: plan.AggMin, Arg: col(schema, "T.id"), Name: "min_id"},
			{Func: plan.AggMax, Arg: col(schema, "T.id"), Name: "max_id"},
			{Func: plan.AggSum, Arg: col(schema, "T.id"), Name: "sum_id"},
		},
		Child: scan,
	}
	mat, err := Run(agg, env)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Rows() != 1 {
		t.Fatalf("global agg rows = %d", mat.Rows())
	}
	row := mat.Flatten()
	if row.Cols[0].Int64s()[0] != 100 {
		t.Error("COUNT wrong")
	}
	if math.Abs(row.Cols[1].Float64s()[0]-74.25) > 1e-9 {
		t.Errorf("AVG = %v", row.Cols[1].Float64s()[0])
	}
	if row.Cols[2].Int64s()[0] != 0 || row.Cols[3].Int64s()[0] != 99 {
		t.Error("MIN/MAX wrong")
	}
	if row.Cols[4].Int64s()[0] != 4950 {
		t.Error("SUM wrong")
	}
}

func TestAggregateGrouped(t *testing.T) {
	env, def := testEnv(t)
	scan := scanNode(def)
	schema := scan.Schema()
	agg := &plan.Aggregate{
		GroupBy: []string{"T.grp"},
		Aggs:    []plan.AggSpec{{Func: plan.AggCount, Name: "n"}},
		Child:   scan,
	}
	_ = schema
	mat, err := Run(agg, env)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Rows() != 2 {
		t.Fatalf("groups = %d, want 2", mat.Rows())
	}
	flat := mat.Flatten()
	for i := 0; i < 2; i++ {
		if flat.Cols[1].Int64s()[i] != 50 {
			t.Errorf("group %s count = %d", flat.Cols[0].Strings()[i], flat.Cols[1].Int64s()[i])
		}
	}
}

func TestAggregateEmptyInputGlobal(t *testing.T) {
	env, def := testEnv(t)
	scan := scanNode(def)
	schema := scan.Schema()
	sel := &plan.Select{
		Pred:  &expr.Compare{Op: expr.Lt, L: col(schema, "T.id"), R: &expr.Const{Val: vector.Int64(-1)}},
		Child: scan,
	}
	agg := &plan.Aggregate{
		Aggs:  []plan.AggSpec{{Func: plan.AggCount, Name: "n"}, {Func: plan.AggAvg, Arg: col(schema, "T.val"), Name: "a"}},
		Child: sel,
	}
	mat, err := Run(agg, env)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Rows() != 1 {
		t.Fatal("global aggregate over empty input must yield one row")
	}
	row := mat.Flatten()
	if row.Cols[0].Int64s()[0] != 0 || row.Cols[1].Float64s()[0] != 0 {
		t.Error("empty aggregate defaults wrong")
	}
}

func TestCountDistinct(t *testing.T) {
	env, def := testEnv(t)
	scan := scanNode(def)
	schema := scan.Schema()
	agg := &plan.Aggregate{
		Aggs:  []plan.AggSpec{{Func: plan.AggCount, Arg: col(schema, "T.grp"), Distinct: true, Name: "d"}},
		Child: scan,
	}
	mat, err := Run(agg, env)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Flatten().Cols[0].Int64s()[0] != 2 {
		t.Error("COUNT(DISTINCT grp) != 2")
	}
}

func TestSortAndLimit(t *testing.T) {
	env, def := testEnv(t)
	scan := scanNode(def)
	sorted := &plan.Sort{Keys: []plan.SortKey{{Index: 0, Desc: true}}, Child: scan}
	lim := &plan.Limit{N: 3, Child: sorted}
	mat, err := Run(lim, env)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Rows() != 3 {
		t.Fatalf("rows = %d", mat.Rows())
	}
	ids := mat.Flatten().Cols[0].Int64s()
	if ids[0] != 99 || ids[1] != 98 || ids[2] != 97 {
		t.Errorf("sorted ids = %v", ids)
	}
}

func TestSortStability(t *testing.T) {
	env, def := testEnv(t)
	scan := scanNode(def)
	// Sort by grp: within a group, original id order must be preserved.
	sorted := &plan.Sort{Keys: []plan.SortKey{{Index: 1, Desc: false}}, Child: scan}
	mat, err := Run(sorted, env)
	if err != nil {
		t.Fatal(err)
	}
	flat := mat.Flatten()
	prev := int64(-1)
	for i := 0; i < 50; i++ { // first 50 rows are group "x": ids 0,2,4...
		id := flat.Cols[0].Int64s()[i]
		if id <= prev {
			t.Fatalf("sort not stable at row %d: %d after %d", i, id, prev)
		}
		prev = id
	}
}

func TestUnionAllAndResultScan(t *testing.T) {
	env, def := testEnv(t)
	scan := scanNode(def)
	mat, err := Run(scan, env)
	if err != nil {
		t.Fatal(err)
	}
	env.Results["r1"] = mat
	rs := &plan.ResultScan{Name: "r1", Cols: scan.Schema()}
	union := &plan.UnionAll{Inputs: []plan.Node{rs, &plan.ResultScan{Name: "r1", Cols: scan.Schema()}}}
	// A fresh result-scan operator is needed per use; rebuild via Run.
	out, err := Run(union, env)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 200 {
		t.Errorf("union rows = %d, want 200", out.Rows())
	}
}

func TestEmptyUnion(t *testing.T) {
	env, def := testEnv(t)
	union := &plan.UnionAll{Cols: scanNode(def).Schema()}
	out, err := Run(union, env)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 0 {
		t.Error("empty union produced rows")
	}
	if len(out.Schema) != 3 {
		t.Error("empty union lost its schema")
	}
}

func TestResultScanMissing(t *testing.T) {
	env, def := testEnv(t)
	rs := &plan.ResultScan{Name: "ghost", Cols: scanNode(def).Schema()}
	if _, err := Run(rs, env); err == nil {
		t.Error("missing materialized result accepted")
	}
}

func TestScanMissingTable(t *testing.T) {
	env, _ := testEnv(t)
	bad := &plan.Scan{TableName: "NOPE", Binding: "NOPE",
		Def: catalog.TableDef{Name: "NOPE", Columns: []storage.Column{{Name: "x", Kind: vector.KindInt64}}}}
	if _, err := Run(bad, env); err == nil {
		t.Error("scan of missing table accepted")
	}
}

func TestMaterializedHelpers(t *testing.T) {
	env, def := testEnv(t)
	mat, err := Run(scanNode(def), env)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Column("T.id") != 0 || mat.Column("grp") != 1 || mat.Column("zzz") != -1 {
		t.Error("Column lookup wrong")
	}
	flat := mat.Flatten()
	if flat.Len() != mat.Rows() {
		t.Error("Flatten lost rows")
	}
}

func TestLimitZero(t *testing.T) {
	env, def := testEnv(t)
	lim := &plan.Limit{N: 0, Child: scanNode(def)}
	mat, err := Run(lim, env)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Rows() != 0 {
		t.Error("LIMIT 0 returned rows")
	}
}
