package mseed

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/waveform"
)

func TestSteimRoundTripSimple(t *testing.T) {
	samples := []int32{100, 101, 99, 150, -20000, -20001, 1 << 20, 0}
	frames := EncodeSteim(samples)
	got, err := DecodeSteim(nil, frames, len(samples))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(samples) {
		t.Fatalf("decoded %d samples, want %d", len(got), len(samples))
	}
	for i := range samples {
		if got[i] != samples[i] {
			t.Errorf("sample %d = %d, want %d", i, got[i], samples[i])
		}
	}
}

func TestSteimSingleSample(t *testing.T) {
	frames := EncodeSteim([]int32{42})
	if len(frames) != FrameSize {
		t.Fatalf("single sample encoded to %d bytes, want one frame", len(frames))
	}
	got, err := DecodeSteim(nil, frames, 1)
	if err != nil || len(got) != 1 || got[0] != 42 {
		t.Fatalf("decode = %v, %v", got, err)
	}
}

func TestSteimEmpty(t *testing.T) {
	if frames := EncodeSteim(nil); frames != nil {
		t.Error("empty input produced frames")
	}
	got, err := DecodeSteim(nil, nil, 0)
	if err != nil || got != nil {
		t.Error("empty decode failed")
	}
	if _, err := DecodeSteim(nil, nil, 5); err == nil {
		t.Error("decode of nothing into 5 samples must fail")
	}
}

func TestSteimRoundTripProperty(t *testing.T) {
	f := func(raw []int32) bool {
		frames := EncodeSteim(raw)
		got, err := DecodeSteim(nil, frames, len(raw))
		if err != nil {
			return false
		}
		if len(got) != len(raw) {
			return false
		}
		for i := range raw {
			if got[i] != raw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSteimExtremeDeltas(t *testing.T) {
	samples := []int32{0, math.MaxInt32, math.MinInt32, -1, 1, math.MinInt32 + 5}
	frames := EncodeSteim(samples)
	got, err := DecodeSteim(nil, frames, len(samples))
	if err != nil {
		t.Fatal(err)
	}
	for i := range samples {
		if got[i] != samples[i] {
			t.Errorf("sample %d = %d, want %d (overflowing deltas must wrap consistently)",
				i, got[i], samples[i])
		}
	}
}

func TestSteimCompressesSmoothData(t *testing.T) {
	samples := waveform.Synthesize(1, 40000, waveform.DefaultParams())
	frames := EncodeSteim(samples)
	raw := len(samples) * 4
	if len(frames) >= raw/2 {
		t.Errorf("compressed %d bytes of %d raw: expected at least 2x compression on smooth data",
			len(frames), raw)
	}
	got, err := DecodeSteim(nil, frames, len(samples))
	if err != nil {
		t.Fatal(err)
	}
	for i := range samples {
		if got[i] != samples[i] {
			t.Fatalf("sample %d mismatch after round trip", i)
		}
	}
}

func TestSteimDetectsCorruption(t *testing.T) {
	samples := []int32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	frames := EncodeSteim(samples)
	frames[20] ^= 0xFF // corrupt a data word
	if _, err := DecodeSteim(nil, frames, len(samples)); err == nil {
		t.Error("corrupted frames decoded without error")
	}
	if _, err := DecodeSteim(nil, frames[:10], len(samples)); err == nil {
		t.Error("truncated, misaligned frames accepted")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		Seq: 7, Network: "NL", Station: "ISK", Location: "00", Channel: "BHE",
		StartTime: 1263247200 * 1e9, SampleRate: 40, NSamples: 1234, FrameBytes: FrameSize * 21,
	}
	var buf [HeaderSize]byte
	MarshalHeader(buf[:], h)
	got, err := UnmarshalHeader(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("header round trip: got %+v, want %+v", got, h)
	}
}

func TestHeaderValidation(t *testing.T) {
	if _, err := UnmarshalHeader(make([]byte, 10)); err == nil {
		t.Error("short header accepted")
	}
	var buf [HeaderSize]byte
	if _, err := UnmarshalHeader(buf[:]); err == nil {
		t.Error("bad magic accepted")
	}
	h := Header{Network: "NL", Station: "X", Channel: "BHZ", SampleRate: 40, FrameBytes: 13}
	MarshalHeader(buf[:], h)
	if _, err := UnmarshalHeader(buf[:]); err == nil {
		t.Error("misaligned FrameBytes accepted")
	}
}

func TestHeaderPaddingTrimmed(t *testing.T) {
	h := Header{Network: "N", Station: "AB", Location: "", Channel: "BH", SampleRate: 1}
	var buf [HeaderSize]byte
	MarshalHeader(buf[:], h)
	got, err := UnmarshalHeader(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Station != "AB" || got.Location != "" || got.Channel != "BH" {
		t.Errorf("padding not trimmed: %+v", got)
	}
}

func TestEndAndSampleTime(t *testing.T) {
	h := Header{StartTime: 0, SampleRate: 40, NSamples: 41}
	if h.EndTime() != 1e9 {
		t.Errorf("EndTime = %d, want 1e9 (40 samples after the first = 1 s at 40 Hz)", h.EndTime())
	}
	if h.SampleTime(40) != 1e9 {
		t.Errorf("SampleTime(40) = %d", h.SampleTime(40))
	}
	one := Header{StartTime: 5, SampleRate: 40, NSamples: 1}
	if one.EndTime() != 5 {
		t.Error("single-sample EndTime should equal StartTime")
	}
}

func writeTestFile(t *testing.T, path string, recs []Record) {
	t.Helper()
	var buf bytes.Buffer
	for _, rec := range recs {
		if _, err := WriteRecord(&buf, rec.Header, rec.Samples); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func testRecords() []Record {
	recs := make([]Record, 3)
	for i := range recs {
		samples := waveform.Synthesize(int64(i+1), 500, waveform.DefaultParams())
		recs[i] = Record{
			Header: Header{
				Seq: uint32(i), Network: "NL", Station: "ISK", Channel: "BHE",
				StartTime: int64(i) * 500 * 25_000_000, SampleRate: 40,
			},
			Samples: samples,
		}
	}
	return recs
}

func TestFileScanHeadersAndReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.mseed")
	writeTestFile(t, path, testRecords())

	headers, err := ScanHeaders(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(headers) != 3 {
		t.Fatalf("scanned %d headers, want 3", len(headers))
	}
	if headers[1].Seq != 1 || headers[1].NSamples != 500 {
		t.Errorf("header 1 = %+v", headers[1])
	}

	recs, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || len(recs[2].Samples) != 500 {
		t.Fatalf("ReadFile wrong shape")
	}
	want := waveform.Synthesize(3, 500, waveform.DefaultParams())
	for i := range want {
		if recs[2].Samples[i] != want[i] {
			t.Fatal("record 2 samples corrupted through file round trip")
		}
	}
}

func TestReadFileFiltered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.mseed")
	writeTestFile(t, path, testRecords())
	recs, err := ReadFileFiltered(path, func(h Header) bool { return h.Seq == 1 })
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("filtered read returned %d records", len(recs))
	}
}

func TestScanHeadersRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.mseed")
	if err := os.WriteFile(path, []byte("this is not a seed file at all........................."), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ScanHeaders(path); err == nil {
		t.Error("garbage file scanned without error")
	}
	if _, err := ScanHeaders(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file scanned without error")
	}
}

func TestWriteRecordSetsGeometry(t *testing.T) {
	var buf bytes.Buffer
	n, err := WriteRecord(&buf, Header{Network: "N", Station: "S", Channel: "BHZ", SampleRate: 40},
		[]int32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if n != buf.Len() {
		t.Errorf("reported %d bytes, wrote %d", n, buf.Len())
	}
	h, err := UnmarshalHeader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if h.NSamples != 3 || h.FrameBytes != buf.Len()-HeaderSize {
		t.Errorf("geometry wrong: %+v", h)
	}
}
