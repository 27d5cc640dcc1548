package plan

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/sql"
)

// stage2 returns the resolved, column-pruned Stage-2 plan of q with two
// files of interest (one mounted, one cached), and the unpruned one.
func stage2(t *testing.T, q string) (pruned, full Node) {
	t.Helper()
	cat := seismicCatalog(t)
	dec, ok := Decompose(mustOptimize(t, cat, q), cat, "qf1")
	if !ok || dec.MetadataOnly {
		t.Fatalf("no two-stage decomposition for %s", q)
	}
	files := []MountSpec{{URI: "a.mseed"}, {URI: "b.mseed", Cached: true}}
	full = ApplyRule1(dec.Qs, "D", "seismic", files)
	pruned, err := Resolve(PruneColumns(full))
	if err != nil {
		t.Fatal(err)
	}
	return pruned, full
}

func TestPruneColumnsStage2(t *testing.T) {
	const from = ` FROM F JOIN R ON F.uri = R.uri
		JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
		WHERE F.station = 'ISK' AND R.start_time > '2010-01-12T00:00:00.000'`
	cases := []struct {
		name, q          string
		join, resultScan []string
	}{
		{
			// Figure 3's shape: the R ⋈ D join carries one D column and
			// gathers nothing from the build side.
			name: "aggregate over one D column",
			q:    `SELECT AVG(D.sample_value), MIN(D.sample_value), COUNT(*)` + from,
			join: []string{"D.sample_value"}, resultScan: []string{"R.uri", "R.record_id"},
		},
		{
			name: "COUNT(*) keeps one column so rows survive",
			q:    `SELECT COUNT(*)` + from,
			join: []string{"D.uri"}, resultScan: []string{"R.uri", "R.record_id"},
		},
		{
			name:       "metadata columns above the join",
			q:          `SELECT F.channel, R.start_time, D.sample_value` + from + ` ORDER BY D.sample_value`,
			join:       []string{"D.sample_value", "F.channel", "R.start_time"},
			resultScan: []string{"F.channel", "R.uri", "R.record_id", "R.start_time"},
		},
		{
			name:       "residual OR across the join",
			q:          `SELECT COUNT(*)` + from + ` AND (F.channel = 'BHZ' OR D.sample_value > 10)`,
			join:       []string{"D.sample_value", "F.channel"},
			resultScan: []string{"F.channel", "R.uri", "R.record_id"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pruned, full := stage2(t, tc.q)
			if !reflect.DeepEqual(schemaNames(pruned.Schema()), schemaNames(full.Schema())) {
				t.Fatalf("output schema moved: %v, was %v", schemaNames(pruned.Schema()), schemaNames(full.Schema()))
			}
			var join *Join
			var rs *ResultScan
			Walk(pruned, func(n Node) {
				switch x := n.(type) {
				case *Join:
					join = x
				case *ResultScan:
					rs = x
				case *Mount:
					if len(x.Schema()) != 4 {
						t.Errorf("mount narrowed to %v; mounts keep whole D rows", schemaNames(x.Schema()))
					}
				case *CacheScan:
					if len(x.Schema()) != 4 {
						t.Errorf("cache-scan narrowed to %v", schemaNames(x.Schema()))
					}
				}
			})
			if got := schemaNames(join.Schema()); !reflect.DeepEqual(got, tc.join) {
				t.Errorf("join emits %v, want %v\n%s", got, tc.join, Format(pruned))
			}
			if got := schemaNames(rs.Cols); !reflect.DeepEqual(got, tc.resultScan) {
				t.Errorf("result-scan keeps %v, want %v", got, tc.resultScan)
			}
		})
	}
}

// TestPruneColumnsNarrowsRestoreProject pins pruning through a Project
// below the root: a hand-built projection that lists the join chain's
// columns in reverse keeps only the one the aggregate reads, and so does
// the join under it.
func TestPruneColumnsNarrowsRestoreProject(t *testing.T) {
	_, full := stage2(t, `SELECT COUNT(*), MAX(D.sample_value) FROM F JOIN R ON F.uri = R.uri
		JOIN D ON R.uri = D.uri AND R.record_id = D.record_id WHERE F.station = 'ISK'`)
	var chain *Join
	Walk(full, func(n Node) {
		if j, ok := n.(*Join); ok && chain == nil {
			chain = j
		}
	})
	if chain == nil {
		t.Fatalf("no join in\n%s", Format(full))
	}
	cs := chain.Schema()
	restore := &Project{Child: chain}
	for i := len(cs) - 1; i >= 0; i-- {
		q := cs[i].Qualified()
		restore.Exprs = append(restore.Exprs, &expr.Col{Index: i, Name: q, K: cs[i].Kind})
		restore.Names = append(restore.Names, q)
	}
	pruned, err := Resolve(PruneColumns(ReplaceNode(full, chain, restore)))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"D.sample_value"}
	var projects, joins int
	Walk(pruned, func(n Node) {
		switch x := n.(type) {
		case *Project:
			if _, ok := x.Child.(*Join); ok {
				projects++
				if got := schemaNames(x.Schema()); !reflect.DeepEqual(got, want) {
					t.Errorf("restore project keeps %v, want %v", got, want)
				}
			}
		case *Join:
			joins++
			if got := schemaNames(x.Schema()); !reflect.DeepEqual(got, want) {
				t.Errorf("join emits %v, want %v", got, want)
			}
		}
	})
	if projects != 1 || joins == 0 {
		t.Fatalf("pruned plan has %d restore projects and %d joins\n%s", projects, joins, Format(pruned))
	}
}

// TestBindRejectsIncomparableJoinKeys pins the bind-time kind check: an
// ON equality between kinds that never compare fails with the error the
// same equality fails with in WHERE, instead of a silently empty join.
func TestBindRejectsIncomparableJoinKeys(t *testing.T) {
	cat := seismicCatalog(t)
	bind := func(on string) error {
		stmt, err := sql.Parse(`SELECT COUNT(*) FROM R JOIN D ON ` + on)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Bind(stmt, cat)
		return err
	}
	for on, want := range map[string]string{
		"R.uri = D.record_id":           "expr: cannot compare VARCHAR with BIGINT",
		"D.record_id = R.uri":           "expr: cannot compare BIGINT with VARCHAR",
		"R.start_time = D.sample_value": "expr: cannot compare TIMESTAMP with DOUBLE",
	} {
		if err := bind(on); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ON %s: err = %v, want %q", on, err, want)
		}
	}
	for _, on := range []string{"R.record_id = D.sample_value", "R.start_time = D.record_id", "R.uri = D.uri"} {
		if err := bind(on); err != nil {
			t.Errorf("ON %s: %v", on, err)
		}
	}
}

func schemaNames(s []ColInfo) []string {
	out := make([]string, len(s))
	for i, ci := range s {
		out[i] = ci.Qualified()
	}
	return out
}
