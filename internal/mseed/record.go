package mseed

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"time"
)

// Magic identifies a record header.
var Magic = [4]byte{'M', 'S', 'R', '1'}

// HeaderSize is the fixed on-disk size of a record header.
const HeaderSize = 48

// Header is the self-describing metadata carried by every record: the
// stream identity, timing, and payload geometry. This is the "(small)
// metadata accompanying (big) actual data" that the paper's first
// execution stage operates on.
type Header struct {
	Seq        uint32  // record sequence number within the file
	Network    string  // 2-char network code, e.g. "NL"
	Station    string  // up to 5-char station code, e.g. "ISK"
	Location   string  // 2-char location code, may be blank
	Channel    string  // 3-char channel code, e.g. "BHE"
	StartTime  int64   // first sample time, epoch nanoseconds UTC
	SampleRate float64 // samples per second
	NSamples   int     // number of samples in the payload
	FrameBytes int     // compressed payload size in bytes
}

// EndTime returns the time of the last sample.
func (h Header) EndTime() int64 {
	if h.NSamples <= 1 || h.SampleRate <= 0 {
		return h.StartTime
	}
	return h.StartTime + int64(float64(h.NSamples-1)/h.SampleRate*float64(time.Second))
}

// SampleTime returns the time of sample i.
func (h Header) SampleTime(i int) int64 {
	return h.StartTime + int64(float64(i)/h.SampleRate*float64(time.Second))
}

// Record is a decoded record: header plus samples.
type Record struct {
	Header
	Samples []int32
}

func putPadded(dst []byte, s string) {
	for i := range dst {
		if i < len(s) {
			dst[i] = s[i]
		} else {
			dst[i] = ' '
		}
	}
}

func trimPadded(b []byte) string {
	end := len(b)
	for end > 0 && b[end-1] == ' ' {
		end--
	}
	return string(b[:end])
}

// MarshalHeader encodes h (with FrameBytes already set) into dst, which
// must be at least HeaderSize bytes.
func MarshalHeader(dst []byte, h Header) {
	copy(dst[0:4], Magic[:])
	binary.BigEndian.PutUint32(dst[4:8], h.Seq)
	putPadded(dst[8:10], h.Network)
	putPadded(dst[10:15], h.Station)
	putPadded(dst[15:17], h.Location)
	putPadded(dst[17:20], h.Channel)
	binary.BigEndian.PutUint64(dst[20:28], uint64(h.StartTime))
	binary.BigEndian.PutUint64(dst[28:36], uint64(floatBits(h.SampleRate)))
	binary.BigEndian.PutUint32(dst[36:40], uint32(h.NSamples))
	binary.BigEndian.PutUint32(dst[40:44], uint32(h.FrameBytes))
	// dst[44:48] reserved
	dst[44], dst[45], dst[46], dst[47] = 0, 0, 0, 0
}

// UnmarshalHeader decodes a record header from src.
func UnmarshalHeader(src []byte) (Header, error) {
	if len(src) < HeaderSize {
		return Header{}, fmt.Errorf("mseed: short header: %d bytes", len(src))
	}
	if src[0] != Magic[0] || src[1] != Magic[1] || src[2] != Magic[2] || src[3] != Magic[3] {
		return Header{}, fmt.Errorf("mseed: bad magic %q", src[0:4])
	}
	h := Header{
		Seq:        binary.BigEndian.Uint32(src[4:8]),
		Network:    trimPadded(src[8:10]),
		Station:    trimPadded(src[10:15]),
		Location:   trimPadded(src[15:17]),
		Channel:    trimPadded(src[17:20]),
		StartTime:  int64(binary.BigEndian.Uint64(src[20:28])),
		SampleRate: floatFromBits(binary.BigEndian.Uint64(src[28:36])),
		NSamples:   int(binary.BigEndian.Uint32(src[36:40])),
		FrameBytes: int(binary.BigEndian.Uint32(src[40:44])),
	}
	if h.FrameBytes%FrameSize != 0 {
		return Header{}, fmt.Errorf("mseed: record %d: frame bytes %d not a multiple of %d",
			h.Seq, h.FrameBytes, FrameSize)
	}
	if h.NSamples > maxSamples(h.FrameBytes) {
		return Header{}, fmt.Errorf("mseed: record %d: %d frame bytes cannot hold %d samples",
			h.Seq, h.FrameBytes, h.NSamples)
	}
	if math.IsNaN(h.SampleRate) || math.IsInf(h.SampleRate, 0) {
		return Header{}, fmt.Errorf("mseed: record %d: sample rate %v", h.Seq, h.SampleRate)
	}
	if h.SampleRate <= 0 && h.NSamples > 1 {
		return Header{}, fmt.Errorf("mseed: record %d: non-positive sample rate", h.Seq)
	}
	return h, nil
}

// WriteRecord compresses samples and writes one record to w, returning
// the number of bytes written.
func WriteRecord(w io.Writer, h Header, samples []int32) (int, error) {
	frames := EncodeSteim(samples)
	h.NSamples = len(samples)
	h.FrameBytes = len(frames)
	var hdr [HeaderSize]byte
	MarshalHeader(hdr[:], h)
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("mseed: write header: %w", err)
	}
	if _, err := w.Write(frames); err != nil {
		return 0, fmt.Errorf("mseed: write frames: %w", err)
	}
	return HeaderSize + len(frames), nil
}

// Reader iterates the records of one file.
type Reader struct {
	br     *bufio.Reader
	err    error
	frames []byte // payload buffer, reused from record to record
}

// NewReader wraps r for record iteration.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Reset makes r iterate the records of src from the start, keeping its
// 64 KiB read buffer and payload buffer.
func (r *Reader) Reset(src io.Reader) {
	r.br.Reset(src)
	r.err = nil
}

// readers recycles Readers, so opening a file does not allocate a fresh
// 64 KiB buffer.
var readers = sync.Pool{New: func() any { return NewReader(nil) }}

// GetReader returns a pooled Reader over src. Pass it to PutReader once
// done, on every path.
func GetReader(src io.Reader) *Reader {
	r := readers.Get().(*Reader)
	r.Reset(src)
	return r
}

// PutReader returns r to the pool; r must not be used afterwards.
func PutReader(r *Reader) {
	r.Reset(nil)
	readers.Put(r)
}

// NextHeader reads the next record header, or io.EOF at end of file.
// After NextHeader the caller must consume the payload with either
// ReadPayload or SkipPayload before the next call.
func (r *Reader) NextHeader() (Header, error) {
	if r.err != nil {
		return Header{}, r.err
	}
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		if err == io.EOF {
			r.err = io.EOF
			return Header{}, io.EOF
		}
		r.err = fmt.Errorf("mseed: read header: %w", err)
		return Header{}, r.err
	}
	h, err := UnmarshalHeader(hdr[:])
	if err != nil {
		r.err = err
	}
	return h, err
}

// ReadPayload decodes the samples of the record whose header was just
// returned by NextHeader into dst's storage, reused when its capacity
// suffices (nil: a fresh slice the caller owns). A caller that copies
// the samples out before the next record passes the previous result
// back and decodes a whole file without a per-record allocation.
// The payload buffer grows at most a MiB ahead of the bytes that have
// arrived, so a corrupt FrameBytes cannot allocate more than the file
// holds.
func (r *Reader) ReadPayload(h Header, dst []int32) ([]int32, error) {
	r.frames = r.frames[:0]
	for lo := 0; lo < h.FrameBytes; lo = len(r.frames) {
		n := min(h.FrameBytes-lo, 1<<20)
		if lo+n > cap(r.frames) {
			// Doubling keeps reuse across records; make+copy rather than
			// slices.Grow, which under -race also allocates a temporary
			// of the growth's size.
			grown := make([]byte, lo, max(lo+n, min(2*cap(r.frames), lo+1<<20)))
			copy(grown, r.frames)
			r.frames = grown
		}
		r.frames = r.frames[:lo+n]
		if _, err := io.ReadFull(r.br, r.frames[lo:]); err != nil {
			r.err = fmt.Errorf("mseed: read payload of record %d: %w", h.Seq, err)
			return nil, r.err
		}
	}
	return DecodeSteim(dst, r.frames, h.NSamples)
}

// SkipPayload discards the payload of the record whose header was just
// returned by NextHeader. This is the fast path metadata extraction uses:
// headers are read, waveforms are never touched.
func (r *Reader) SkipPayload(h Header) error {
	if _, err := r.br.Discard(h.FrameBytes); err != nil {
		r.err = fmt.Errorf("mseed: skip payload of record %d: %w", h.Seq, err)
		return r.err
	}
	return nil
}

// ScanHeaders reads only the record headers of the file at path — the
// metadata extraction primitive of the first execution stage.
func ScanHeaders(path string) ([]Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := GetReader(f)
	defer PutReader(r)
	var out []Header
	for {
		h, err := r.NextHeader()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if err := r.SkipPayload(h); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, h)
	}
}

// ReadFile fully decodes every record of the file at path — the mount
// primitive of the second execution stage.
func ReadFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := NewReader(f)
	var out []Record
	for {
		h, err := r.NextHeader()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		samples, err := r.ReadPayload(h, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, Record{Header: h, Samples: samples})
	}
}

func floatBits(f float64) uint64     { return uint64FromFloat(f) }
func floatFromBits(b uint64) float64 { return float64FromUint(b) }
