// Package seismic maps the mSEED file format onto the paper's
// three-table relational schema: F (file-level metadata), R (record-level
// metadata) and D (actual time-series data). It is the reference
// implementation of catalog.FormatAdapter — the "domain- and
// format-specific mappings and extractions" the paper's generalization
// challenge asks a scientific developer to provide.
package seismic

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/catalog"
	"repro/internal/mseed"
	"repro/internal/storage"
	"repro/internal/vector"
)

// Table names of the seismic schema (as in the paper's Query 1).
const (
	FileTable   = "F"
	RecordTable = "R"
	DataTable   = "D"
)

// AdapterName identifies this format in the registry.
const AdapterName = "mseed"

// Adapter implements catalog.FormatAdapter for mSEED repositories.
type Adapter struct{}

// NewAdapter returns the mSEED adapter.
func NewAdapter() *Adapter { return &Adapter{} }

// Name implements catalog.FormatAdapter.
func (a *Adapter) Name() string { return AdapterName }

// Tables implements catalog.FormatAdapter. The normalized schema follows
// section 3 of the paper: one metadata table F for file-level metadata,
// another R for record-level metadata, and a single actual-data table D
// storing (sample_time, sample_value) points from all files and records.
func (a *Adapter) Tables() (file, record, data catalog.TableDef) {
	file = catalog.TableDef{
		Name: FileTable,
		Kind: catalog.Metadata,
		Columns: []storage.Column{
			{Name: "uri", Kind: vector.KindString},
			{Name: "network", Kind: vector.KindString},
			{Name: "station", Kind: vector.KindString},
			{Name: "location", Kind: vector.KindString},
			{Name: "channel", Kind: vector.KindString},
			{Name: "year", Kind: vector.KindInt64},
			{Name: "day_of_year", Kind: vector.KindInt64},
			{Name: "size_bytes", Kind: vector.KindInt64},
			{Name: "record_count", Kind: vector.KindInt64},
		},
	}
	record = catalog.TableDef{
		Name: RecordTable,
		Kind: catalog.Metadata,
		Columns: []storage.Column{
			{Name: "uri", Kind: vector.KindString},
			{Name: "record_id", Kind: vector.KindInt64},
			{Name: "start_time", Kind: vector.KindTime},
			{Name: "end_time", Kind: vector.KindTime},
			{Name: "sample_rate", Kind: vector.KindFloat64},
			{Name: "nsamples", Kind: vector.KindInt64},
		},
	}
	data = catalog.TableDef{
		Name: DataTable,
		Kind: catalog.ActualData,
		Columns: []storage.Column{
			{Name: "uri", Kind: vector.KindString},
			{Name: "record_id", Kind: vector.KindInt64},
			{Name: "sample_time", Kind: vector.KindTime},
			{Name: "sample_value", Kind: vector.KindFloat64},
		},
	}
	return file, record, data
}

// URIColumn implements catalog.FormatAdapter.
func (a *Adapter) URIColumn() string { return "uri" }

// RecordIDColumn implements catalog.FormatAdapter.
func (a *Adapter) RecordIDColumn() string { return "record_id" }

// DataSpanColumn implements catalog.FormatAdapter: sample_time values of
// a record lie within [start_time, end_time].
func (a *Adapter) DataSpanColumn() string { return "sample_time" }

// RecordSpan implements catalog.FormatAdapter.
func (a *Adapter) RecordSpan(rm catalog.RecordMeta) (int64, int64, bool) {
	// Values are ordered per the record table definition above.
	if len(rm.Values) < 4 {
		return 0, 0, false
	}
	return rm.Values[2].I, rm.Values[3].I, true
}

// ExtractMetadata implements catalog.FormatAdapter: it reads record
// headers only — the waveform payload is skipped, never decompressed.
func (a *Adapter) ExtractMetadata(path, uri string) (catalog.FileMeta, []catalog.RecordMeta, error) {
	headers, err := mseed.ScanHeaders(path)
	if err != nil {
		return catalog.FileMeta{}, nil, fmt.Errorf("seismic: extract metadata: %w", err)
	}
	if len(headers) == 0 {
		return catalog.FileMeta{}, nil, fmt.Errorf("seismic: %s holds no records", path)
	}
	var sizeBytes int64
	records := make([]catalog.RecordMeta, len(headers))
	for i, h := range headers {
		sizeBytes += int64(mseed.HeaderSize + h.FrameBytes)
		records[i] = catalog.RecordMeta{
			URI:      uri,
			RecordID: int64(h.Seq),
			Values: []vector.Value{
				vector.Str(uri),
				vector.Int64(int64(h.Seq)),
				vector.Time(h.StartTime),
				vector.Time(h.EndTime()),
				vector.Float64(h.SampleRate),
				vector.Int64(int64(h.NSamples)),
			},
		}
	}
	first := headers[0]
	t := time.Unix(0, first.StartTime).UTC()
	fileMeta := catalog.FileMeta{
		URI: uri,
		Values: []vector.Value{
			vector.Str(uri),
			vector.Str(first.Network),
			vector.Str(first.Station),
			vector.Str(first.Location),
			vector.Str(first.Channel),
			vector.Int64(int64(t.Year())),
			vector.Int64(int64(t.YearDay())),
			vector.Int64(sizeBytes),
			vector.Int64(int64(len(headers))),
		},
	}
	return fileMeta, records, nil
}

// Mount implements catalog.FormatAdapter: extract, transform (decompress
// and materialize per-sample timestamps) and return the file's rows of D.
// Records rejected by keep are skipped without decompression.
func (a *Adapter) Mount(path, uri string, keep func(catalog.RecordMeta) bool) (*vector.Batch, error) {
	return catalog.CollectMount(a, path, uri, keep)
}

// MountStream implements catalog.FormatAdapter: records are decoded one
// at a time off the mseed reader and each is yielded as its own batch,
// so consumers see data while the file is still being decompressed. A
// record's uri and record_id are Const columns, O(1) however many
// samples it holds; sample_time and sample_value are written out. Every
// batch is one record, so batchRows never splits or merges anything.
func (a *Adapter) MountStream(path, uri string, keep func(catalog.RecordMeta) bool, _ int, emit func(*vector.Batch) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("seismic: mount %s: %w", uri, err)
	}
	defer f.Close()
	r := mseed.GetReader(f)
	defer mseed.PutReader(r)
	var samples []int32 // decode buffer, dead once copied into a batch
	for {
		h, err := r.NextHeader()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("seismic: mount %s: %w", uri, err)
		}
		if keep != nil && !keep(recordMetaFromHeader(uri, h)) {
			if err := r.SkipPayload(h); err != nil {
				return fmt.Errorf("seismic: mount %s: %w", uri, err)
			}
			continue
		}
		if samples, err = r.ReadPayload(h, samples); err != nil {
			return fmt.Errorf("seismic: mount %s: %w", uri, err)
		}
		n := len(samples)
		if n == 0 {
			continue
		}
		times, vals := make([]int64, n), make([]float64, n)
		for i, s := range samples {
			// Use the header's own timestamp materialization so mounted
			// sample_time values agree exactly with R.start_time/end_time.
			times[i] = h.SampleTime(i)
			vals[i] = float64(s)
		}
		b := vector.NewBatch(
			vector.Const(vector.Str(uri), n),
			vector.Const(vector.Int64(int64(h.Seq)), n),
			vector.FromTime(times),
			vector.FromFloat64(vals),
		)
		if err := emit(b); err != nil {
			return err
		}
	}
}

func recordMetaFromHeader(uri string, h mseed.Header) catalog.RecordMeta {
	return catalog.RecordMeta{
		URI:      uri,
		RecordID: int64(h.Seq),
		Values: []vector.Value{
			vector.Str(uri),
			vector.Int64(int64(h.Seq)),
			vector.Time(h.StartTime),
			vector.Time(h.EndTime()),
			vector.Float64(h.SampleRate),
			vector.Int64(int64(h.NSamples)),
		},
	}
}

// FileSizeColumn implements the engine's EstimateHints extension: the
// informativeness model reads file sizes from F.size_bytes.
func (a *Adapter) FileSizeColumn() string { return "size_bytes" }

// RowCountColumn implements EstimateHints: per-record sample counts live
// in R.nsamples.
func (a *Adapter) RowCountColumn() string { return "nsamples" }

// RecordSpanColumns implements EstimateHints: each record covers
// [start_time, end_time].
func (a *Adapter) RecordSpanColumns() (string, string) { return "start_time", "end_time" }
