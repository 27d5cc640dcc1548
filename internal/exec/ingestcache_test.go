package exec

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/expr"
	"repro/internal/mountsvc"
	"repro/internal/plan"
	"repro/internal/seismic"
	"repro/internal/vector"
)

// TestDropMidStreamLeavesNoEntry: a Drop or Clear of a URI while a query
// is still reading its mount wins over the fill, at both granularities.
// The URI changed under the flight, so an entry of its rows would let
// rule (1) serve pre-change data after NotifyFileChanged.
func TestDropMidStreamLeavesNoEntry(t *testing.T) {
	for _, g := range []cache.Granularity{cache.FileGranular, cache.TupleGranular} {
		for _, inval := range []string{"Drop", "Clear"} {
			t.Run(g.String()+"/"+inval, func(t *testing.T) {
				env, m, def := mountEnv(t, cache.Config{Policy: cache.LRU, Granularity: g})
				env.BatchSize = 250 // one record per batch: four batches
				// A one-byte window keeps the extractor within a batch of
				// the reader, so the flight is still streaming at the Drop.
				withService(env, m.Dir, mountsvc.Config{SpillThresholdBytes: 1})
				f := m.Files[0]
				op, err := Build(mountNode(m, def, spanPred(def, f.StartTime, f.EndTime)), env)
				if err != nil {
					t.Fatal(err)
				}
				defer op.Close()
				if b, err := op.Next(); err != nil || b == nil {
					t.Fatalf("first batch: %v, %v", b, err)
				}
				if inval == "Drop" {
					env.Cache.Drop(f.URI)
				} else {
					env.Cache.Clear()
				}
				rows := 0
				for {
					b, err := op.Next()
					if err != nil {
						t.Fatal(err)
					}
					if b == nil {
						break
					}
					rows += b.Len()
				}
				if rows != 750 {
					t.Errorf("drained %d rows after the first batch, want 750", rows)
				}
				if st := env.Cache.Stats(); st.Entries != 0 {
					t.Errorf("the invalidated URI came back: %d entries", st.Entries)
				}
			})
		}
	}
}

func TestMountWithoutServiceErrors(t *testing.T) {
	env, m, def := mountEnv(t, cache.Config{})
	env.MountSvc = nil
	if _, err := Run(mountNode(m, def, nil), env); err == nil {
		t.Error("mount without a mount service succeeded")
	}
}

// TestTupleRetentionProperty checks tuple-granular retention against its
// definition over random spans — empty, whole-file, inside one record
// and on record boundaries, with strict and closed bounds, with and
// without a residual conjunct on sample_value:
//
//   - the entry holds exactly filterBatch(file rows, absorbed span
//     conjuncts), the rows the span stands for;
//   - a cache scan over the entry's batches returns what filterBatch
//     over their concatenation returns;
//   - the mount itself returns filterBatch(file rows, predicate).
func TestTupleRetentionProperty(t *testing.T) {
	env, m, def := mountEnv(t, cache.Config{})
	f := m.Files[0]
	ad := seismic.NewAdapter()
	all, err := ad.Mount(filepath.Join(m.Dir, f.URI), f.URI, nil)
	if err != nil {
		t.Fatal(err)
	}
	schema := (&plan.Mount{Binding: "D", Def: def}).Schema()
	tcol := plan.FindColumn(schema, "D.sample_time")
	vcol := plan.FindColumn(schema, "D.sample_value")
	ridCol := plan.FindColumn(schema, "D.record_id")
	ts := all.Cols[tcol].Int64s()
	vals := all.Cols[vcol].Float64s()
	// Record boundaries: the first and last sample time of each record.
	var firsts, lasts []int64
	for i, t := range ts {
		if i == 0 || all.Cols[ridCol].Get(i) != all.Cols[ridCol].Get(i-1) {
			firsts = append(firsts, t)
			if i > 0 {
				lasts = append(lasts, ts[i-1])
			}
		}
	}
	lasts = append(lasts, ts[len(ts)-1])
	if len(firsts) < 2 {
		t.Fatalf("test file has %d records, want several", len(firsts))
	}

	tc := &expr.Col{Index: tcol, Name: "D.sample_time", K: vector.KindTime}
	vc := &expr.Col{Index: vcol, Name: "D.sample_value", K: vector.KindFloat64}
	rng := rand.New(rand.NewSource(1))
	// bound is `t >= x` or the equivalent strict `t > x-1` (and likewise
	// for the upper side), so that closing strict bounds is exercised.
	bound := func(lower bool, x int64) expr.Expr {
		op, strict := expr.Le, rng.Intn(2) == 0
		switch {
		case lower && strict:
			op, x = expr.Gt, x-1
		case lower:
			op = expr.Ge
		case strict:
			op, x = expr.Lt, x+1
		}
		return &expr.Compare{Op: op, L: tc, R: &expr.Const{Val: vector.Time(x)}}
	}
	inRecord := func() (int64, int64) {
		r := rng.Intn(len(firsts))
		lo := firsts[r] + rng.Int63n(lasts[r]-firsts[r]+1)
		return lo, lo + rng.Int63n(lasts[r]-lo+1)
	}
	spans := []func() (string, int64, int64){
		func() (string, int64, int64) { return "empty", ts[0] + 10, ts[0] },
		func() (string, int64, int64) { return "before", ts[0] - 1000, ts[0] - 1 },
		func() (string, int64, int64) { return "whole", ts[0], ts[len(ts)-1] },
		func() (string, int64, int64) { return "wider", ts[0] - 5, ts[len(ts)-1] + 5 },
		func() (string, int64, int64) { lo, hi := inRecord(); return "inside", lo, hi },
		func() (string, int64, int64) {
			i := rng.Intn(len(firsts))
			j := i + rng.Intn(len(firsts)-i)
			if rng.Intn(2) == 0 {
				return "boundary", lasts[i], firsts[j]
			}
			return "boundary", firsts[i], lasts[j]
		},
	}
	for n := range 48 {
		kind, lo, hi := spans[n%len(spans)]()
		conj := []expr.Expr{bound(true, lo), bound(false, hi)}
		if rng.Intn(2) == 0 {
			v := vals[rng.Intn(len(vals))]
			conj = append(conj, &expr.Compare{Op: expr.Gt, L: vc, R: &expr.Const{Val: vector.Float64(v)}})
		}
		pred := expr.JoinAnd(conj)
		batchRows := []int{250, 500, 4096}[rng.Intn(3)] // 1, 2 or 4 records a batch
		t.Run(fmt.Sprintf("%d/%s", n, kind), func(t *testing.T) {
			env.Cache = cache.New(cache.Config{Policy: cache.LRU, Granularity: cache.TupleGranular})
			env.BatchSize = batchRows
			withService(env, m.Dir, mountsvc.Config{})
			mat, err := Run(mountNode(m, def, pred), env)
			if err != nil {
				t.Fatal(err)
			}
			wantMount, err := filterBatch(all, pred)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := rowsOf(mat.Batches), rowsOf([]*vector.Batch{wantMount}); !reflect.DeepEqual(got, want) {
				t.Fatalf("mount returned %d rows, filterBatch %d", len(got), len(want))
			}

			sp := plan.ColumnSpan(pred, "D.sample_time")
			entry, ok := env.Cache.Get(f.URI, SpanNeed(sp))
			if !ok {
				t.Fatalf("no entry covers the span [%d, %d]", sp.Lo, sp.Hi)
			}
			retained, err := filterBatch(all, expr.JoinAnd(sp.Absorbed))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := rowsOf(entry), rowsOf([]*vector.Batch{retained}); !reflect.DeepEqual(got, want) {
				t.Fatalf("entry holds %d rows, the absorbed span conjuncts keep %d", len(got), len(want))
			}

			cs := &plan.CacheScan{URI: f.URI, Adapter: seismic.AdapterName, Binding: "D", Def: def, Pred: pred}
			scanned, err := Run(cs, env)
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			if len(entry) > 0 {
				flat, err := filterBatch(vector.Concat(entry), pred)
				if err != nil {
					t.Fatal(err)
				}
				want = rowsOf([]*vector.Batch{flat})
			}
			if got := rowsOf(scanned.Batches); !reflect.DeepEqual(got, want) {
				t.Fatalf("cache scan returned %d rows, filterBatch over the entry %d", len(got), len(want))
			}
		})
	}
}

// rowsOf renders the rows of batches, in order.
func rowsOf(bs []*vector.Batch) []string {
	var out []string
	for _, b := range bs {
		for i := range b.Len() {
			out = append(out, b.FormatRow(i))
		}
	}
	return out
}
