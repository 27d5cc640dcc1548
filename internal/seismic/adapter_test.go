package seismic

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/repo"
	"repro/internal/vector"
)

func genOne(t *testing.T) (*repo.Manifest, repo.Spec) {
	t.Helper()
	spec := repo.DefaultSpec(t.TempDir())
	spec.Stations = spec.Stations[:1]
	spec.Channels = spec.Channels[:1]
	spec.Days = 1
	spec.RecordsPerFile = 3
	spec.SamplesPerRecord = 400
	m, err := repo.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return m, spec
}

func TestAdapterImplementsInterface(t *testing.T) {
	var _ catalog.FormatAdapter = NewAdapter()
}

func TestTablesShape(t *testing.T) {
	a := NewAdapter()
	f, r, d := a.Tables()
	if f.Kind != catalog.Metadata || r.Kind != catalog.Metadata || d.Kind != catalog.ActualData {
		t.Error("table kinds wrong")
	}
	for _, def := range []catalog.TableDef{f, r, d} {
		if def.ColumnIndex(a.URIColumn()) < 0 {
			t.Errorf("table %s lacks uri column", def.Name)
		}
	}
	if r.ColumnIndex(a.RecordIDColumn()) < 0 || d.ColumnIndex(a.RecordIDColumn()) < 0 {
		t.Error("record_id column missing")
	}
	if d.ColumnIndex(a.DataSpanColumn()) < 0 {
		t.Error("span column missing from D")
	}
}

func TestExtractMetadata(t *testing.T) {
	m, spec := genOne(t)
	a := NewAdapter()
	uri := m.Files[0].URI
	fm, rms, err := a.ExtractMetadata(m.Path(uri), uri)
	if err != nil {
		t.Fatal(err)
	}
	if fm.URI != uri {
		t.Errorf("file meta uri = %q", fm.URI)
	}
	// station value at position 2 per the F definition.
	if fm.Values[2].S != "ISK" {
		t.Errorf("station = %q", fm.Values[2].S)
	}
	if len(rms) != spec.RecordsPerFile {
		t.Fatalf("records = %d", len(rms))
	}
	if rms[1].RecordID != 1 {
		t.Errorf("record id = %d", rms[1].RecordID)
	}
	lo, hi, ok := a.RecordSpan(rms[0])
	if !ok || lo >= hi {
		t.Errorf("record span = %d..%d ok=%v", lo, hi, ok)
	}
}

func TestMountRowsMatchMetadata(t *testing.T) {
	m, spec := genOne(t)
	a := NewAdapter()
	uri := m.Files[0].URI
	_, rms, err := a.ExtractMetadata(m.Path(uri), uri)
	if err != nil {
		t.Fatal(err)
	}
	b, err := a.Mount(m.Path(uri), uri, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := spec.RecordsPerFile * spec.SamplesPerRecord
	if b.Len() != wantRows {
		t.Fatalf("mounted %d rows, want %d", b.Len(), wantRows)
	}
	if b.NumCols() != 4 {
		t.Fatalf("columns = %d", b.NumCols())
	}
	// sample_time of every row must lie inside its record's metadata span.
	times := b.Cols[2].Int64s()
	rids := b.Cols[1].Int64s()
	for i := 0; i < b.Len(); i += 97 {
		rm := rms[rids[i]]
		lo, hi, _ := a.RecordSpan(rm)
		if times[i] < lo || times[i] > hi {
			t.Fatalf("row %d time %d outside record span [%d,%d]", i, times[i], lo, hi)
		}
	}
	// First sample time must equal the record's start exactly.
	if times[0] != rms[0].Values[2].I {
		t.Error("first sample time != record start_time")
	}
}

func TestMountWithRecordFilter(t *testing.T) {
	m, spec := genOne(t)
	a := NewAdapter()
	uri := m.Files[0].URI
	b, err := a.Mount(m.Path(uri), uri, func(rm catalog.RecordMeta) bool {
		return rm.RecordID == 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != spec.SamplesPerRecord {
		t.Fatalf("filtered mount = %d rows, want %d", b.Len(), spec.SamplesPerRecord)
	}
	for _, rid := range b.Cols[1].Int64s() {
		if rid != 1 {
			t.Fatal("foreign record leaked through filter")
		}
	}
}

func TestMountMissingFile(t *testing.T) {
	a := NewAdapter()
	if _, err := a.Mount("/nonexistent/x.mseed", "x.mseed", nil); err == nil {
		t.Error("missing file mounted without error")
	}
	if _, _, err := a.ExtractMetadata("/nonexistent/x.mseed", "x.mseed"); err == nil {
		t.Error("missing file extracted without error")
	}
}

func TestEstimateHintColumnsExist(t *testing.T) {
	a := NewAdapter()
	f, r, _ := a.Tables()
	if f.ColumnIndex(a.FileSizeColumn()) < 0 {
		t.Error("FileSizeColumn not in F")
	}
	if r.ColumnIndex(a.RowCountColumn()) < 0 {
		t.Error("RowCountColumn not in R")
	}
	lo, hi := a.RecordSpanColumns()
	if r.ColumnIndex(lo) < 0 || r.ColumnIndex(hi) < 0 {
		t.Error("RecordSpanColumns not in R")
	}
}

func TestValuesMatchTableDefs(t *testing.T) {
	m, _ := genOne(t)
	a := NewAdapter()
	uri := m.Files[0].URI
	fm, rms, err := a.ExtractMetadata(m.Path(uri), uri)
	if err != nil {
		t.Fatal(err)
	}
	fdef, rdef, _ := a.Tables()
	if len(fm.Values) != len(fdef.Columns) {
		t.Errorf("file row has %d values, def has %d columns", len(fm.Values), len(fdef.Columns))
	}
	for i, v := range fm.Values {
		want := fdef.Columns[i].Kind
		if v.Kind != want && !(want == vector.KindTime && v.Kind == vector.KindInt64) {
			t.Errorf("F value %d kind %s, want %s", i, v.Kind, want)
		}
	}
	if len(rms[0].Values) != len(rdef.Columns) {
		t.Errorf("record row has %d values, def has %d columns", len(rms[0].Values), len(rdef.Columns))
	}
}

// TestMountStreamParity proves the streaming and materializing mount
// paths produce identical rows, and that every streamed batch is one
// whole record with uri and record_id as Const columns, whatever the
// requested batch size.
func TestMountStreamParity(t *testing.T) {
	m, _ := genOne(t)
	a := NewAdapter()
	uri := m.Files[0].URI
	whole, err := a.Mount(m.Path(uri), uri, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Smaller than one record's 400 samples, and room for several.
	for _, batchRows := range []int{256, 4096} {
		var streamed []*vector.Batch
		err = a.MountStream(m.Path(uri), uri, nil, batchRows, func(b *vector.Batch) error {
			streamed = append(streamed, b)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(streamed) != 3 {
			t.Fatalf("batchRows %d: %d batches for 3 records", batchRows, len(streamed))
		}
		row, lastID := 0, int64(-1)
		for bi, b := range streamed {
			u, uok := b.Cols[0].ConstValue()
			id, iok := b.Cols[1].ConstValue()
			if !uok || !iok || u.S != uri || id.I <= lastID || b.Len() != 400 {
				t.Fatalf("batchRows %d: batch %d is not one record with Const keys: uri %v/%v id %v/%v, %d rows",
					batchRows, bi, u, uok, id, iok, b.Len())
			}
			lastID = id.I
			for i := 0; i < b.Len(); i++ {
				for c := range b.Cols {
					if vector.Compare(b.Cols[c].Get(i), whole.Cols[c].Get(row)) != 0 {
						t.Fatalf("row %d col %d differs between stream and mount", row, c)
					}
				}
				row++
			}
		}
		if row != whole.Len() {
			t.Fatalf("stream yielded %d rows, mount %d", row, whole.Len())
		}
	}
}
