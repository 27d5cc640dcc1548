// Package ingest implements the two ingestion approaches the paper
// compares:
//
//   - Metadata-only loading (the ALi side): only record headers are read;
//     the metadata tables F and R are populated and the actual-data table
//     D stays empty. Actual data enters the system later, per query,
//     through the mount access path.
//
//   - Eager ingestion (Ei): the entire repository is extracted,
//     decompressed and loaded up-front, followed by primary- and
//     foreign-key index construction — which the paper measures at about
//     four times the load time itself.
package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/par"
	"repro/internal/storage"
	"repro/internal/vector"
)

// normWorkers resolves a worker count: <= 0 means one worker per
// available CPU.
func normWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// MetadataResult summarizes a metadata-only load.
type MetadataResult struct {
	Files       int
	Records     int64
	Wall        time.Duration
	ModeledIO   time.Duration
	BytesStored int64
}

// EagerResult summarizes a full eager load.
type EagerResult struct {
	Meta       MetadataResult
	DataRows   int64
	LoadWall   time.Duration
	LoadIO     time.Duration
	IndexWall  time.Duration
	IndexIO    time.Duration
	IndexBytes int64
	Indexes    []exec.IndexInfo
	DataBytes  int64 // column bytes of all tables, without indexes
	RepoBytes  int64 // original compressed repository bytes
}

// EnsureTables creates the adapter's three tables if missing and
// registers them in the catalog.
func EnsureTables(store *storage.Store, cat *catalog.Catalog, ad catalog.FormatAdapter) error {
	fileDef, recDef, dataDef := ad.Tables()
	for _, def := range []catalog.TableDef{fileDef, recDef, dataDef} {
		if _, ok := store.Table(def.Name); !ok {
			if _, err := store.Create(def.Name, def.Columns); err != nil {
				return err
			}
		}
		if _, ok := cat.Table(def.Name); !ok {
			if err := cat.Define(def); err != nil {
				return err
			}
		}
	}
	return nil
}

// fileMeta is one file's extracted metadata, produced by a worker.
type fileMeta struct {
	fm  catalog.FileMeta
	rms []catalog.RecordMeta
}

// LoadMetadataParallel extracts only metadata from every repository file
// into the adapter's file- and record-level tables, using workers
// extraction workers (<= 0 selects one per CPU). It charges the modeled
// cost of reading the headers (one seek per file plus the header
// bytes). Extraction and the modeled header reads fan out across
// workers; rows are appended in file order, so the stored tables are
// byte-identical at every parallelism level.
func LoadMetadataParallel(store *storage.Store, ad catalog.FormatAdapter, repoDir string, uris []string, workers int) (MetadataResult, error) {
	start := time.Now()
	pool := store.Pool()
	var ioStart time.Duration
	if pool.Clock() != nil {
		ioStart = pool.Clock().Elapsed()
	}
	fileDef, recDef, _ := ad.Tables()
	fileTbl, ok := store.Table(fileDef.Name)
	if !ok {
		return MetadataResult{}, fmt.Errorf("ingest: table %s missing (call EnsureTables)", fileDef.Name)
	}
	recTbl, ok := store.Table(recDef.Name)
	if !ok {
		return MetadataResult{}, fmt.Errorf("ingest: table %s missing", recDef.Name)
	}
	fApp, err := fileTbl.NewAppender()
	if err != nil {
		return MetadataResult{}, err
	}
	rApp, err := recTbl.NewAppender()
	if err != nil {
		return MetadataResult{}, err
	}

	res := MetadataResult{}
	fileRows := newRowBuffer(fileDef)
	recRows := newRowBuffer(recDef)
	err = par.ForEachOrdered(len(uris), normWorkers(workers),
		func(i int) (fileMeta, error) {
			path := filepath.Join(repoDir, uris[i])
			fm, rms, err := ad.ExtractMetadata(path, uris[i])
			if err != nil {
				return fileMeta{}, err
			}
			// Modeled cost: one seek, then the header bytes of every record
			// (payloads are skipped, not transferred).
			pool.Model().ChargeRead(pool.Clock(), 1, false)
			return fileMeta{fm: fm, rms: rms}, nil
		},
		func(_ int, f fileMeta) error {
			fileRows.add(f.fm.Values)
			for _, rm := range f.rms {
				recRows.add(rm.Values)
			}
			res.Files++
			res.Records += int64(len(f.rms))
			if fileRows.rows >= 4096 {
				if err := fileRows.flush(fApp); err != nil {
					return err
				}
			}
			if recRows.rows >= 4096 {
				if err := recRows.flush(rApp); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil {
		return res, err
	}
	if err := fileRows.flush(fApp); err != nil {
		return res, err
	}
	if err := recRows.flush(rApp); err != nil {
		return res, err
	}
	if err := fApp.Close(); err != nil {
		return res, err
	}
	if err := rApp.Close(); err != nil {
		return res, err
	}
	res.Wall = time.Since(start)
	if pool.Clock() != nil {
		res.ModeledIO = pool.Clock().Elapsed() - ioStart
	}
	res.BytesStored = fileTbl.SizeOnDisk() + recTbl.SizeOnDisk()
	return res, nil
}

// mountedFile is one file's extracted actual data, produced by a worker.
type mountedFile struct {
	batch *vector.Batch
	size  int64
}

// LoadEagerParallel performs the Ei ingestion: metadata plus all actual
// data, followed (when buildIndexes is set) by primary- and foreign-key
// index construction. Per-file extract/decompress runs on workers
// goroutines (<= 0 selects one per CPU); batches are appended to
// the data table in file order, so stored columns and dictionaries are
// identical at every parallelism level.
func LoadEagerParallel(store *storage.Store, ad catalog.FormatAdapter, repoDir string, uris []string, buildIndexes bool, workers int) (EagerResult, error) {
	out := EagerResult{}
	pool := store.Pool()
	clockAt := func() time.Duration {
		if pool.Clock() == nil {
			return 0
		}
		return pool.Clock().Elapsed()
	}

	loadStart := time.Now()
	ioStart := clockAt()
	meta, err := LoadMetadataParallel(store, ad, repoDir, uris, workers)
	if err != nil {
		return out, err
	}
	out.Meta = meta

	_, _, dataDef := ad.Tables()
	dataTbl, ok := store.Table(dataDef.Name)
	if !ok {
		return out, fmt.Errorf("ingest: table %s missing", dataDef.Name)
	}
	dApp, err := dataTbl.NewAppender()
	if err != nil {
		return out, err
	}
	err = par.ForEachOrdered(len(uris), normWorkers(workers),
		func(i int) (mountedFile, error) {
			path := filepath.Join(repoDir, uris[i])
			st, err := os.Stat(path)
			if err != nil {
				return mountedFile{}, err
			}
			// Model reading the full compressed file through the page cache.
			pool.Touch(path, st.Size())
			batch, err := ad.Mount(path, uris[i], nil)
			if err != nil {
				return mountedFile{}, err
			}
			return mountedFile{batch: batch, size: st.Size()}, nil
		},
		func(_ int, mf mountedFile) error {
			out.RepoBytes += mf.size
			if err := dApp.Append(mf.batch); err != nil {
				return err
			}
			out.DataRows += int64(mf.batch.Len())
			return nil
		})
	if err != nil {
		return out, err
	}
	if err := dApp.Close(); err != nil {
		return out, err
	}
	out.LoadWall = time.Since(loadStart)
	out.LoadIO = clockAt() - ioStart
	out.DataBytes = store.SizeOnDisk()

	if buildIndexes {
		idxStart := time.Now()
		idxIOStart := clockAt()
		indexes, bytes, err := BuildKeyIndexes(store, ad)
		if err != nil {
			return out, err
		}
		out.Indexes = indexes
		out.IndexBytes = bytes
		out.IndexWall = time.Since(idxStart)
		out.IndexIO = clockAt() - idxIOStart
	}
	return out, nil
}

// BuildKeyIndexes constructs the primary- and foreign-key indexes the Ei
// baseline queries with: PK(F.uri), PK(R.uri, R.record_id) and
// FK(D.uri, D.record_id). Key columns are indexed by dictionary code for
// strings and by value otherwise. Primary keys are validated unique.
func BuildKeyIndexes(store *storage.Store, ad catalog.FormatAdapter) ([]exec.IndexInfo, int64, error) {
	fileDef, recDef, dataDef := ad.Tables()
	uriCol := ad.URIColumn()
	ridCol := ad.RecordIDColumn()

	specs := []struct {
		table   string
		keys    []string
		primary bool
	}{
		{table: fileDef.Name, keys: []string{uriCol}, primary: true},
		{table: recDef.Name, keys: []string{uriCol, ridCol}, primary: true},
		{table: dataDef.Name, keys: []string{uriCol, ridCol}, primary: false},
	}

	idxDir := filepath.Join(store.Dir(), "_indexes")
	if err := os.MkdirAll(idxDir, 0o755); err != nil {
		return nil, 0, err
	}
	var infos []exec.IndexInfo
	var totalBytes int64
	for _, spec := range specs {
		tbl, ok := store.Table(spec.table)
		if !ok {
			return nil, 0, fmt.Errorf("ingest: index build over missing table %s", spec.table)
		}
		entries, err := keyEntries(tbl, spec.keys)
		if err != nil {
			return nil, 0, err
		}
		name := spec.table
		for _, k := range spec.keys {
			name += "_" + k
		}
		ix, err := index.Build(filepath.Join(idxDir, name+".idx"), store.Pool(), entries)
		if err != nil {
			return nil, 0, err
		}
		if spec.primary {
			unique, err := ix.Unique()
			if err != nil {
				return nil, 0, err
			}
			if !unique {
				return nil, 0, fmt.Errorf("ingest: primary key of %s(%v) is not unique", spec.table, spec.keys)
			}
		}
		totalBytes += ix.SizeOnDisk()
		infos = append(infos, exec.IndexInfo{Index: ix, TableName: spec.table, KeyColumns: spec.keys})
	}
	return infos, totalBytes, nil
}

// keyEntries reads the key columns of a table and produces index entries.
func keyEntries(tbl *storage.Table, keys []string) ([]index.Entry, error) {
	if len(keys) == 0 || len(keys) > 2 {
		return nil, fmt.Errorf("ingest: index needs 1 or 2 key columns")
	}
	colIdx := make([]int, len(keys))
	for i, k := range keys {
		colIdx[i] = tbl.ColumnIndex(k)
		if colIdx[i] < 0 {
			return nil, fmt.Errorf("ingest: table %s lacks key column %s", tbl.Name(), k)
		}
	}
	rows := tbl.Rows()
	entries := make([]index.Entry, 0, rows)
	const chunk = 1 << 16
	for lo := int64(0); lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		batch, err := tbl.ReadBatch(colIdx, lo, hi)
		if err != nil {
			return nil, err
		}
		n := batch.Len()
		for r := 0; r < n; r++ {
			e := index.Entry{RowID: lo + int64(r)}
			for i := range keys {
				v := batch.Cols[i].Get(r)
				var k int64
				switch v.Kind {
				case vector.KindString:
					dict := tbl.Dict(colIdx[i])
					code, ok := dict.CodeIfPresent(v.S)
					if !ok {
						return nil, fmt.Errorf("ingest: string %q not in dictionary of %s.%s",
							v.S, tbl.Name(), keys[i])
					}
					k = code
				default:
					k = v.AsInt()
				}
				if i == 0 {
					e.A = k
				} else {
					e.B = k
				}
			}
			entries = append(entries, e)
		}
	}
	return entries, nil
}

// rowBuffer accumulates value rows into column vectors for batched
// appends. The buffer relies on the copy-on-write ownership contract:
// storage.Appender.Append only reads the batch it is handed, so reset
// truncates the vectors in place and reuses their storage for the next
// batch instead of reallocating — Vector.Reset detaches (without
// copying) only if someone unexpectedly still shares the storage.
type rowBuffer struct {
	def  catalog.TableDef
	cols []*vector.Vector
	rows int
}

func newRowBuffer(def catalog.TableDef) *rowBuffer {
	b := &rowBuffer{def: def}
	b.cols = make([]*vector.Vector, len(b.def.Columns))
	for i, c := range b.def.Columns {
		b.cols[i] = vector.New(c.Kind, 4096)
	}
	return b
}

func (b *rowBuffer) reset() {
	for _, c := range b.cols {
		c.Reset()
	}
	b.rows = 0
}

func (b *rowBuffer) add(values []vector.Value) {
	for i, v := range values {
		b.cols[i].AppendValue(v)
	}
	b.rows++
}

func (b *rowBuffer) flush(app *storage.Appender) error {
	if b.rows == 0 {
		return nil
	}
	if err := app.Append(vector.NewBatch(b.cols...)); err != nil {
		return err
	}
	b.reset()
	return nil
}
