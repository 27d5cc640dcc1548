package storage

// Spill files are the on-disk form of frozen batch streams: the
// out-of-core layer serializes flight replay buffers and demoted
// result-cache entries into them and replays them through streaming,
// record-aligned reads. The format is a frame stream so a reader can
// follow a writer that is still appending (the mount service's late
// joiners replay from disk while the extraction runs):
//
//	header:  magic "RSPILL2\n" | u32 ncols | ncols × u8 kind
//	frame:   u8 tag
//	  batch (tag 1): u32 payloadLen | u32 nNewDict | nNewDict ×
//	                 (u32 len | bytes) | u32 rows | per column
//	                 u8 form | data
//	    form 0: rows × diskWidth(kind) bytes
//	    form 1: one diskWidth(kind) value standing for every row
//	            (a Const vector)
//	  end   (tag 2): u32 totalBatches
//
// A file of an older format fails the magic check and reads as
// ErrCorruptSpill, which every reader already treats as "gone".
// VARCHAR values are dictionary codes against a per-file dictionary
// built incrementally: each batch frame carries the strings first seen
// in that batch, in code order, so a sequential reader reconstructs the
// dictionary as it goes and never needs a side file. Fixed-width kinds
// use the column-file encoding (little-endian; DOUBLE via Float64bits,
// so NaN payloads and ±Inf survive bit-exactly).
//
// Every frame is written with one Write call. I/O is charged to the
// engine's modeled disk: one sequential ChargeWrite per frame written,
// one ChargeRead per frame read (the first read of a file pays the
// seek).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"repro/internal/vector"
)

// ErrCorruptSpill marks a spill file that cannot be decoded: bad magic,
// a torn or truncated frame, an out-of-range dictionary code. Callers
// treat it as "the spilled data is gone", never as fatal.
var ErrCorruptSpill = errors.New("storage: corrupt spill file")

var spillMagic = [8]byte{'R', 'S', 'P', 'I', 'L', 'L', '2', '\n'}

const (
	spillFrameBatch = 1
	spillFrameEnd   = 2

	spillColRows  = 0
	spillColConst = 1
)

// SpillFile is an owned temporary file handle with an explicit end of
// life: every CreateSpillFile must be paired with exactly one Remove
// (delete the temp file) or Adopt (keep it, ownership moves to the
// caller's bookkeeping) on every path — the releasecheck analyzer
// enforces the pairing, so a leaked spill temp file is a lint failure.
type SpillFile struct {
	f       *os.File
	path    string
	settled bool
}

// CreateSpillFile creates a uniquely named spill file in dir (pattern
// as in os.CreateTemp).
func CreateSpillFile(dir, pattern string) (*SpillFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, fmt.Errorf("storage: create spill file: %w", err)
	}
	return &SpillFile{f: f, path: f.Name()}, nil
}

// File returns the open write handle.
func (s *SpillFile) File() *os.File { return s.f }

// Path returns the file's path.
func (s *SpillFile) Path() string { return s.path }

// Remove closes the handle and deletes the file (best effort). Calling
// Remove or Adopt twice panics: like a double budget release, it means
// two owners believed they held the file.
func (s *SpillFile) Remove() {
	s.settle()
	s.f.Close()
	os.Remove(s.path)
}

// Adopt closes the write handle and keeps the file on disk, returning
// its path: ownership transfers to the caller (e.g. a cache manifest).
// On a close error the file is removed and the error returned; either
// way the handle is settled.
func (s *SpillFile) Adopt() (string, error) {
	s.settle()
	if err := s.f.Close(); err != nil {
		os.Remove(s.path)
		return "", fmt.Errorf("storage: adopt spill file: %w", err)
	}
	return s.path, nil
}

func (s *SpillFile) settle() {
	if s.settled {
		panic("storage: spill file already removed or adopted")
	}
	s.settled = true
}

// BatchWriter appends batch frames to a spill file. It is not safe for
// concurrent use; the out-of-core call sites write from exactly one
// goroutine per file.
type BatchWriter struct {
	w       io.Writer
	kinds   []vector.Kind
	dictIdx map[string]int64
	dictLen int64
	model   DiskModel
	clock   *Clock
	started bool
	batches int
	scratch []byte
}

// NewBatchWriter returns a writer of the given column schema over w.
// The header is written lazily with the first frame.
func NewBatchWriter(w io.Writer, kinds []vector.Kind, model DiskModel, clock *Clock) *BatchWriter {
	ks := make([]vector.Kind, len(kinds))
	copy(ks, kinds)
	return &BatchWriter{w: w, kinds: ks, dictIdx: make(map[string]int64), model: model, clock: clock}
}

// Batches returns how many batch frames have been written.
func (w *BatchWriter) Batches() int { return w.batches }

func appendUint32(dst []byte, v uint32) []byte {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	return append(dst, buf[:]...)
}

func (w *BatchWriter) flush(frame []byte) error {
	if _, err := w.w.Write(frame); err != nil {
		return fmt.Errorf("storage: write spill frame: %w", err)
	}
	w.model.ChargeWrite(w.clock, int64(len(frame)))
	return nil
}

// start writes the header before the first frame.
func (w *BatchWriter) start() error {
	if w.started {
		return nil
	}
	w.started = true
	hdr := appendUint32(append([]byte{}, spillMagic[:]...), uint32(len(w.kinds)))
	for _, k := range w.kinds {
		hdr = append(hdr, byte(k))
	}
	return w.flush(hdr)
}

// Append writes one batch as a frame. The batch's column kinds must
// match the writer's schema. Empty batches are valid frames.
func (w *BatchWriter) Append(b *vector.Batch) error {
	if b == nil {
		return errors.New("storage: BatchWriter.Append on nil batch")
	}
	if b.NumCols() != len(w.kinds) {
		return fmt.Errorf("storage: spill batch has %d columns, schema has %d", b.NumCols(), len(w.kinds))
	}
	if err := w.start(); err != nil {
		return err
	}

	// Collect the strings this batch introduces, in code order.
	var newDict []string
	intern := func(s string) {
		if _, ok := w.dictIdx[s]; !ok {
			w.dictIdx[s] = w.dictLen
			w.dictLen++
			newDict = append(newDict, s)
		}
	}
	rows := b.Len()
	for i, col := range b.Cols {
		k := col.Kind()
		if k != w.kinds[i] {
			return fmt.Errorf("storage: spill batch column %d is %s, schema says %s", i, k, w.kinds[i])
		}
		if k != vector.KindString {
			continue
		}
		if val, ok := col.ConstValue(); ok {
			intern(val.S)
			continue
		}
		for _, s := range col.Strings() {
			intern(s)
		}
	}
	// The frame is built once in the reused scratch buffer, its 5-byte
	// header reserved up front and filled in when the length is known.
	frame := append(w.scratch[:0], spillFrameBatch, 0, 0, 0, 0)
	frame = appendUint32(frame, uint32(len(newDict)))
	for _, s := range newDict {
		frame = appendUint32(frame, uint32(len(s)))
		frame = append(frame, s...)
	}
	frame = appendUint32(frame, uint32(rows))
	for _, col := range b.Cols {
		if val, ok := col.ConstValue(); ok {
			frame = append(frame, spillColConst)
			if val.Kind == vector.KindString {
				frame = binary.LittleEndian.AppendUint64(frame, uint64(w.dictIdx[val.S]))
			} else {
				frame = encodeValue(frame, val)
			}
			continue
		}
		frame = append(frame, spillColRows)
		if col.Kind() == vector.KindString {
			for _, s := range col.Strings() {
				frame = binary.LittleEndian.AppendUint64(frame, uint64(w.dictIdx[s]))
			}
			continue
		}
		frame = encodeVector(frame, col)
	}
	binary.LittleEndian.PutUint32(frame[1:5], uint32(len(frame)-5))
	w.scratch = frame[:0]
	if err := w.flush(frame); err != nil {
		return err
	}
	w.batches++
	return nil
}

// Finish writes the end frame. A file without one is either still being
// written or truncated; readers only treat end-framed files as complete.
func (w *BatchWriter) Finish() error {
	if err := w.start(); err != nil {
		return err
	}
	frame := []byte{spillFrameEnd}
	frame = appendUint32(frame, uint32(w.batches))
	return w.flush(frame)
}

// WriteBatches writes a complete spill file (header, one frame per
// batch, end frame) at path, removing any partial file on error.
func WriteBatches(path string, kinds []vector.Kind, batches []*vector.Batch, model DiskModel, clock *Clock) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("storage: create spill %s: %w", path, err)
	}
	w := NewBatchWriter(f, kinds, model, clock)
	for _, b := range batches {
		if err := w.Append(b); err != nil {
			f.Close()
			os.Remove(path)
			return err
		}
	}
	if err := w.Finish(); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return fmt.Errorf("storage: close spill %s: %w", path, err)
	}
	return nil
}

// BatchReader streams batches back out of a spill file in write order.
// It maintains its own dictionary state from the frames' deltas, so any
// number of readers can replay one file independently (including while
// a writer is still appending, as long as the caller only asks for
// frames the writer has already written).
type BatchReader struct {
	f     *os.File
	kinds []vector.Kind
	dict  []string
	model DiskModel
	clock *Clock
	read  int // batch frames decoded
	first bool
	done  bool
	buf   []byte // the frame being decoded; the batch copies out of it
}

// OpenBatchReader opens a spill file and validates its header.
func OpenBatchReader(path string, model DiskModel, clock *Clock) (*BatchReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open spill %s: %w", path, err)
	}
	hdr := make([]byte, len(spillMagic)+4)
	if _, err := io.ReadFull(f, hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %s: short header", ErrCorruptSpill, path)
	}
	if [8]byte(hdr[:8]) != spillMagic {
		f.Close()
		return nil, fmt.Errorf("%w: %s: bad magic", ErrCorruptSpill, path)
	}
	ncols := binary.LittleEndian.Uint32(hdr[8:])
	if ncols > 1<<16 {
		f.Close()
		return nil, fmt.Errorf("%w: %s: implausible column count %d", ErrCorruptSpill, path, ncols)
	}
	kb := make([]byte, ncols)
	if _, err := io.ReadFull(f, kb); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %s: short schema", ErrCorruptSpill, path)
	}
	kinds := make([]vector.Kind, ncols)
	for i, b := range kb {
		k := vector.Kind(b)
		if k == vector.KindInvalid || k > vector.KindTime {
			f.Close()
			return nil, fmt.Errorf("%w: %s: invalid column kind %d", ErrCorruptSpill, path, b)
		}
		kinds[i] = k
	}
	return &BatchReader{f: f, kinds: kinds, model: model, clock: clock, first: true}, nil
}

// Kinds returns the file's column schema.
func (r *BatchReader) Kinds() []vector.Kind {
	out := make([]vector.Kind, len(r.kinds))
	copy(out, r.kinds)
	return out
}

// Batches returns how many batch frames have been decoded so far.
func (r *BatchReader) Batches() int { return r.read }

// Close releases the file handle.
func (r *BatchReader) Close() error { return r.f.Close() }

func (r *BatchReader) charge(n int) {
	pages := (n + PageSize - 1) / PageSize
	if pages == 0 {
		pages = 1
	}
	r.model.ChargeRead(r.clock, pages, !r.first)
	r.first = false
}

// Next decodes the next batch frame. It returns (nil, nil) at the end
// frame; hitting raw EOF or any undecodable bytes instead returns an
// error wrapping ErrCorruptSpill — a file without its end frame is
// truncated (or still being written, in which case the caller should
// not have read this far).
func (r *BatchReader) Next() (*vector.Batch, error) {
	if r.done {
		return nil, nil
	}
	var tag [1]byte
	if _, err := io.ReadFull(r.f, tag[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated before frame %d", ErrCorruptSpill, r.read)
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(r.f, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("%w: torn frame %d", ErrCorruptSpill, r.read)
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	switch tag[0] {
	case spillFrameEnd:
		r.charge(5)
		if int(n) != r.read {
			return nil, fmt.Errorf("%w: end frame says %d batches, read %d", ErrCorruptSpill, n, r.read)
		}
		r.done = true
		return nil, nil
	case spillFrameBatch:
		var err error
		if r.buf, err = readN(r.f, r.buf[:0], int(n)); err != nil {
			return nil, fmt.Errorf("%w: torn frame %d", ErrCorruptSpill, r.read)
		}
		r.charge(5 + int(n))
		b, err := r.decodeFrame(r.buf)
		if err != nil {
			return nil, err
		}
		r.read++
		return b, nil
	default:
		return nil, fmt.Errorf("%w: unknown frame tag %d", ErrCorruptSpill, tag[0])
	}
}

// readN appends n bytes read from f to buf, growing it at most a MiB
// ahead of what has arrived, so a corrupt length cannot allocate more
// than the file holds.
func readN(f io.Reader, buf []byte, n int) ([]byte, error) {
	for len(buf) < n {
		lo := len(buf)
		buf = slices.Grow(buf, min(n-lo, 1<<20))
		buf = buf[:lo+min(n-lo, 1<<20)]
		if _, err := io.ReadFull(f, buf[lo:]); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

func (r *BatchReader) decodeFrame(p []byte) (*vector.Batch, error) {
	torn := fmt.Errorf("%w: torn payload in frame %d", ErrCorruptSpill, r.read)
	u32 := func() (uint32, bool) {
		if len(p) < 4 {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(p)
		p = p[4:]
		return v, true
	}
	nDict, ok := u32()
	if !ok {
		return nil, torn
	}
	for i := uint32(0); i < nDict; i++ {
		sl, ok := u32()
		if !ok || len(p) < int(sl) {
			return nil, torn
		}
		r.dict = append(r.dict, string(p[:sl]))
		p = p[sl:]
	}
	rows32, ok := u32()
	if !ok {
		return nil, torn
	}
	rows := int(rows32)
	cols := make([]*vector.Vector, len(r.kinds))
	for i, k := range r.kinds {
		if len(p) < 1 || p[0] > spillColConst {
			return nil, torn
		}
		n := rows
		if p[0] == spillColConst {
			n = 1
		}
		need := 1 + n*diskWidth(k)
		if len(p) < need {
			return nil, torn
		}
		form, raw := p[0], p[1:need]
		p = p[need:]
		switch {
		case form == spillColConst:
			v, err := r.value(k, raw)
			if err != nil {
				return nil, err
			}
			cols[i] = vector.Const(v, rows)
		case k == vector.KindString:
			out := make([]string, rows)
			for j := range out {
				v, err := r.value(k, raw[j*8:])
				if err != nil {
					return nil, err
				}
				out[j] = v.S
			}
			cols[i] = vector.FromString(out)
		default:
			cols[i] = decodeVector(k, raw, rows)
		}
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in frame %d", ErrCorruptSpill, len(p), r.read)
	}
	return vector.NewBatch(cols...), nil
}

// value decodes the one value of kind k at the front of raw, resolving a
// string's dictionary code.
func (r *BatchReader) value(k vector.Kind, raw []byte) (vector.Value, error) {
	switch k {
	case vector.KindBool:
		return vector.Bool(raw[0] != 0), nil
	case vector.KindFloat64:
		return vector.Float64(math.Float64frombits(binary.LittleEndian.Uint64(raw))), nil
	case vector.KindString:
		code := int64(binary.LittleEndian.Uint64(raw))
		if code < 0 || code >= int64(len(r.dict)) {
			return vector.Value{}, fmt.Errorf("%w: dictionary code %d out of range (%d entries)", ErrCorruptSpill, code, len(r.dict))
		}
		return vector.Str(r.dict[code]), nil
	}
	return vector.Value{Kind: k, I: int64(binary.LittleEndian.Uint64(raw))}, nil
}
