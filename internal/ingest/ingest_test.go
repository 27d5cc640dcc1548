package ingest

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/repo"
	"repro/internal/seismic"
	"repro/internal/storage"
)

func genRepo(t *testing.T) (*repo.Manifest, repo.Spec) {
	t.Helper()
	spec := repo.DefaultSpec(t.TempDir())
	spec.Stations = spec.Stations[:2]
	spec.Channels = spec.Channels[:2]
	spec.Days = 2
	spec.RecordsPerFile = 3
	spec.SamplesPerRecord = 500
	m, err := repo.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return m, spec
}

func newStore(t *testing.T) (*storage.Store, *catalog.Catalog, *storage.Clock) {
	t.Helper()
	clock := &storage.Clock{}
	pool := storage.NewBufferPool(1024, storage.HDD7200(), clock)
	store, err := storage.Open(t.TempDir(), pool)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	cat := catalog.New()
	if err := EnsureTables(store, cat, seismic.NewAdapter()); err != nil {
		t.Fatal(err)
	}
	return store, cat, clock
}

func uris(m *repo.Manifest) []string {
	out := make([]string, len(m.Files))
	for i, f := range m.Files {
		out[i] = f.URI
	}
	return out
}

func TestEnsureTablesIdempotent(t *testing.T) {
	store, cat, _ := newStore(t)
	if err := EnsureTables(store, cat, seismic.NewAdapter()); err != nil {
		t.Fatal(err)
	}
	if !cat.IsMetadata("F") || !cat.IsMetadata("R") || cat.IsMetadata("D") {
		t.Error("catalog kinds wrong")
	}
	if len(store.Tables()) != 3 {
		t.Errorf("tables = %v", store.Tables())
	}
}

func TestLoadMetadataOnly(t *testing.T) {
	m, spec := genRepo(t)
	store, _, _ := newStore(t)
	res, err := LoadMetadataParallel(store, seismic.NewAdapter(), m.Dir, uris(m), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Files != len(m.Files) {
		t.Errorf("files = %d, want %d", res.Files, len(m.Files))
	}
	if res.Records != m.Records {
		t.Errorf("records = %d, want %d", res.Records, m.Records)
	}
	fTbl := store.MustTable("F")
	rTbl := store.MustTable("R")
	dTbl := store.MustTable("D")
	if fTbl.Rows() != int64(len(m.Files)) || rTbl.Rows() != m.Records {
		t.Error("metadata tables wrong row counts")
	}
	if dTbl.Rows() != 0 {
		t.Error("metadata-only load populated D")
	}
	// Metadata footprint must be far below repository size.
	if res.BytesStored*5 > m.Bytes {
		t.Errorf("metadata %d bytes vs repo %d: not small", res.BytesStored, m.Bytes)
	}
	_ = spec
}

func TestLoadEagerPopulatesEverything(t *testing.T) {
	m, spec := genRepo(t)
	store, _, _ := newStore(t)
	res, err := LoadEagerParallel(store, seismic.NewAdapter(), m.Dir, uris(m), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := int64(len(m.Files) * spec.RecordsPerFile * spec.SamplesPerRecord)
	if res.DataRows != wantRows {
		t.Errorf("data rows = %d, want %d", res.DataRows, wantRows)
	}
	if store.MustTable("D").Rows() != wantRows {
		t.Error("D rows wrong")
	}
	if len(res.Indexes) != 3 {
		t.Fatalf("indexes = %d, want 3", len(res.Indexes))
	}
	if res.IndexBytes == 0 {
		t.Error("index bytes not reported")
	}
	// Decompressed DB must exceed the compressed repository (the paper's
	// Table 1: 13 GB from 1.3 GB).
	if res.DataBytes <= res.RepoBytes {
		t.Errorf("DB %d bytes should exceed repo %d bytes", res.DataBytes, res.RepoBytes)
	}
	for _, ix := range res.Indexes {
		ix.Index.Close()
	}
}

func TestEagerIndexLookupFindsRows(t *testing.T) {
	m, spec := genRepo(t)
	store, _, _ := newStore(t)
	res, err := LoadEagerParallel(store, seismic.NewAdapter(), m.Dir, uris(m), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, ix := range res.Indexes {
			ix.Index.Close()
		}
	}()
	// The D FK index: look up (first uri, record 1).
	var dIdx *int
	for i, ix := range res.Indexes {
		if ix.TableName == "D" {
			dIdx = &i
			break
		}
	}
	if dIdx == nil {
		t.Fatal("no D index")
	}
	dTbl := store.MustTable("D")
	dict := dTbl.Dict(dTbl.ColumnIndex("uri"))
	code, ok := dict.CodeIfPresent(m.Files[0].URI)
	if !ok {
		t.Fatal("uri not in dictionary")
	}
	rows, err := res.Indexes[*dIdx].Index.Lookup(code, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != spec.SamplesPerRecord {
		t.Errorf("index lookup found %d rows, want %d", len(rows), spec.SamplesPerRecord)
	}
}

func TestLoadChargesIO(t *testing.T) {
	m, _ := genRepo(t)
	store, _, clock := newStore(t)
	clock.Reset()
	if _, err := LoadMetadataParallel(store, seismic.NewAdapter(), m.Dir, uris(m), 0); err != nil {
		t.Fatal(err)
	}
	metaIO := clock.Elapsed()
	if metaIO == 0 {
		t.Error("metadata load charged no I/O")
	}

	store2, _, clock2 := newStore(t)
	clock2.Reset()
	if _, err := LoadEagerParallel(store2, seismic.NewAdapter(), m.Dir, uris(m), false, 0); err != nil {
		t.Fatal(err)
	}
	eagerIO := clock2.Elapsed()
	if eagerIO <= metaIO {
		t.Errorf("eager I/O %v should exceed metadata-only %v", eagerIO, metaIO)
	}
}

func TestLoadMetadataMissingTable(t *testing.T) {
	m, _ := genRepo(t)
	pool := storage.NewBufferPool(64, storage.NoCost(), nil)
	store, err := storage.Open(t.TempDir(), pool)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := LoadMetadataParallel(store, seismic.NewAdapter(), m.Dir, uris(m), 0); err == nil {
		t.Error("load without EnsureTables should fail")
	}
}

func TestKeyEntriesValidation(t *testing.T) {
	store, _, _ := newStore(t)
	tbl := store.MustTable("F")
	if _, err := keyEntries(tbl, nil); err == nil {
		t.Error("empty key list accepted")
	}
	if _, err := keyEntries(tbl, []string{"a", "b", "c"}); err == nil {
		t.Error("three keys accepted")
	}
	if _, err := keyEntries(tbl, []string{"nonexistent"}); err == nil {
		t.Error("missing column accepted")
	}
}
