package storage

// Spill files are the on-disk form of frozen batch lists: the result
// cache's disk tier writes a demoted entry whole with WriteBatches and
// reads it back with OpenBatchReader's streaming, record-aligned reads.
// A file is complete once WriteBatches returns; nothing reads a file
// that is still being written. The format is a frame stream:
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

// WriteBatches writes a complete spill file (header, one frame per
// batch, end frame) at path, removing any partial file on error. Every
// batch's column kinds must match kinds; empty batches are valid frames.
func WriteBatches(path string, kinds []vector.Kind, batches []*vector.Batch, model DiskModel, clock *Clock) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("storage: create spill %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("storage: close spill %s: %w", path, cerr)
		}
		if err != nil {
			os.Remove(path)
		}
	}()
	flush := func(frame []byte) error {
		if _, err := f.Write(frame); err != nil {
			return fmt.Errorf("storage: write spill frame: %w", err)
		}
		model.ChargeWrite(clock, int64(len(frame)))
		return nil
	}

	frame := binary.LittleEndian.AppendUint32(append([]byte(nil), spillMagic[:]...), uint32(len(kinds)))
	for _, k := range kinds {
		frame = append(frame, byte(k))
	}
	if err := flush(frame); err != nil {
		return err
	}
	dict := make(map[string]int64)
	for _, b := range batches {
		if frame, err = appendBatchFrame(frame[:0], b, kinds, dict); err != nil {
			return err
		}
		if err := flush(frame); err != nil {
			return err
		}
	}
	return flush(binary.LittleEndian.AppendUint32(append(frame[:0], spillFrameEnd), uint32(len(batches))))
}

// appendBatchFrame appends b's batch frame to frame. dict maps every
// string an earlier frame of the file introduced to its code; the
// strings this batch introduces are added to it, in code order.
func appendBatchFrame(frame []byte, b *vector.Batch, kinds []vector.Kind, dict map[string]int64) ([]byte, error) {
	if b == nil {
		return nil, errors.New("storage: spill of a nil batch")
	}
	if b.NumCols() != len(kinds) {
		return nil, fmt.Errorf("storage: spill batch has %d columns, schema has %d", b.NumCols(), len(kinds))
	}
	var newDict []string
	intern := func(s string) {
		if _, ok := dict[s]; !ok {
			dict[s] = int64(len(dict))
			newDict = append(newDict, s)
		}
	}
	for i, col := range b.Cols {
		k := col.Kind()
		if k != kinds[i] {
			return nil, fmt.Errorf("storage: spill batch column %d is %s, schema says %s", i, k, kinds[i])
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
	// The 5-byte frame header is reserved up front and filled in when
	// the payload's length is known.
	frame = append(frame, spillFrameBatch, 0, 0, 0, 0)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(newDict)))
	for _, s := range newDict {
		frame = binary.LittleEndian.AppendUint32(frame, uint32(len(s)))
		frame = append(frame, s...)
	}
	frame = binary.LittleEndian.AppendUint32(frame, uint32(b.Len()))
	for _, col := range b.Cols {
		if val, ok := col.ConstValue(); ok {
			frame = append(frame, spillColConst)
			if val.Kind == vector.KindString {
				frame = binary.LittleEndian.AppendUint64(frame, uint64(dict[val.S]))
			} else {
				frame = encodeValue(frame, val)
			}
			continue
		}
		frame = append(frame, spillColRows)
		if col.Kind() == vector.KindString {
			for _, s := range col.Strings() {
				frame = binary.LittleEndian.AppendUint64(frame, uint64(dict[s]))
			}
			continue
		}
		frame = encodeVector(frame, col)
	}
	binary.LittleEndian.PutUint32(frame[1:5], uint32(len(frame)-5))
	return frame, nil
}

// BatchReader streams batches back out of a spill file in write order.
// It maintains its own dictionary state from the frames' deltas, so any
// number of readers can replay one file independently.
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
// truncated.
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
