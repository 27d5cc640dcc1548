package mseed

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
)

// twoRecordFile is a valid file of two records, the second spanning two
// frames.
func twoRecordFile(t testing.TB) []byte {
	var buf bytes.Buffer
	h := Header{Network: "NL", Station: "ISK", Channel: "BHE", StartTime: 1e18, SampleRate: 40}
	if _, err := WriteRecord(&buf, h, []int32{3, 1, 4, 1, 5}); err != nil {
		t.Fatal(err)
	}
	samples := make([]int32, 90)
	for i := range samples {
		samples[i] = int32(i * i)
	}
	h.Seq, h.StartTime = 1, 1e18+125_000_000
	if _, err := WriteRecord(&buf, h, samples); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hugeFramesHeader is a 48-byte header claiming a 1 GiB payload, then 128
// bytes of it.
func hugeFramesHeader() []byte {
	data := make([]byte, HeaderSize+128)
	MarshalHeader(data, Header{Station: "ISK", SampleRate: 40, NSamples: 10, FrameBytes: 1 << 30})
	return data
}

// readAll drives a Reader over data until EOF or the first error,
// decoding even records and skipping odd ones.
func readAll(data []byte) (records int, err error) {
	r := NewReader(bytes.NewReader(data))
	for ; ; records++ {
		h, err := r.NextHeader()
		if err == io.EOF {
			return records, nil
		}
		if err != nil {
			return records, err
		}
		if records%2 == 1 {
			if err := r.SkipPayload(h); err != nil {
				return records, err
			}
			continue
		}
		samples, err := r.ReadPayload(h, nil)
		if err != nil {
			return records, err
		}
		if len(samples) != h.NSamples {
			return records, errors.New("decoded sample count differs from the header")
		}
	}
}

// allocDuring reports the bytes f allocates.
func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCorruptHeaderAllocatesLittle: a header's payload geometry is not
// trusted with memory. A claimed 1 GiB payload is read no more than a
// MiB ahead of the bytes that arrived, and a sample count the frames
// cannot hold fails before the output is sized.
func TestCorruptHeaderAllocatesLittle(t *testing.T) {
	var frame [FrameSize]byte
	cases := map[string]func() error{
		"huge FrameBytes": func() error {
			_, err := readAll(hugeFramesHeader())
			return err
		},
		"huge nsamples": func() error {
			_, err := DecodeSteim(nil, frame[:], 1<<28)
			return err
		},
	}
	for name, run := range cases {
		var err error
		if n := allocDuring(func() { err = run() }); n >= 2<<20 {
			t.Errorf("%s: allocated %d bytes", name, n)
		}
		if err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestHeaderRejectsImpossibleGeometry: a sample count the frames cannot
// hold, samples with no frames, and a non-finite sample rate fail at
// header parse.
func TestHeaderRejectsImpossibleGeometry(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		h  Header
		ok bool
	}{
		{Header{SampleRate: 40, NSamples: 53, FrameBytes: FrameSize}, true},
		{Header{SampleRate: 40, NSamples: 54, FrameBytes: FrameSize}, false},
		{Header{SampleRate: 40, NSamples: 113, FrameBytes: 2 * FrameSize}, true},
		{Header{SampleRate: 40, NSamples: 114, FrameBytes: 2 * FrameSize}, false},
		{Header{SampleRate: 40, NSamples: 0, FrameBytes: 0}, true},
		{Header{SampleRate: 40, NSamples: 1, FrameBytes: 0}, false},
		{Header{SampleRate: nan, NSamples: 1, FrameBytes: FrameSize}, false},
		{Header{SampleRate: inf, NSamples: 1, FrameBytes: FrameSize}, false},
		{Header{SampleRate: -inf, NSamples: 0, FrameBytes: 0}, false},
	} {
		var b [HeaderSize]byte
		MarshalHeader(b[:], tc.h)
		if _, err := UnmarshalHeader(b[:]); (err == nil) != tc.ok {
			t.Errorf("%+v: err = %v, want ok = %v", tc.h, err, tc.ok)
		}
	}
}

// FuzzReader feeds arbitrary bytes through NextHeader and ReadPayload /
// SkipPayload: every input must yield records or an error, never a
// panic. The seed corpus under testdata/fuzz/FuzzReader holds a valid
// two-record file, a torn payload and a header claiming a 1 GiB payload.
func FuzzReader(f *testing.F) {
	valid := twoRecordFile(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-10])
	f.Add(hugeFramesHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		readAll(data)
	})
}

// TestReaderReset: a pooled Reader that stopped on a torn file reads the
// next file from its first record, as a fresh Reader would.
func TestReaderReset(t *testing.T) {
	valid := twoRecordFile(t)
	torn := valid[:len(valid)-10]
	r := GetReader(bytes.NewReader(torn))
	for {
		h, err := r.NextHeader()
		if err == nil {
			_, err = r.ReadPayload(h, nil)
		}
		if err == io.EOF {
			t.Fatal("torn file read to EOF")
		}
		if err != nil {
			break
		}
	}
	r.Reset(bytes.NewReader(valid))
	var seqs []uint32
	for {
		h, err := r.NextHeader()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		samples, err := r.ReadPayload(h, nil)
		if err != nil || len(samples) != h.NSamples {
			t.Fatalf("record %d after Reset: %d samples, %v", h.Seq, len(samples), err)
		}
		seqs = append(seqs, h.Seq)
	}
	PutReader(r)
	if len(seqs) != 2 || seqs[0] != 0 || seqs[1] != 1 {
		t.Errorf("records after Reset = %v, want [0 1]", seqs)
	}
}
