package storage

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vector"
)

// randomVector builds a vector of kind k with n rows, drawing string
// values from a small pool (so dictionary codes collide across batches
// and columns) and salting doubles with NaN and ±Inf.
func randomVector(rng *rand.Rand, k vector.Kind, n int) *vector.Vector {
	switch k {
	case vector.KindBool:
		vals := make([]bool, n)
		for i := range vals {
			vals[i] = rng.Intn(2) == 0
		}
		return vector.FromBool(vals)
	case vector.KindInt64:
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63() - rng.Int63()
		}
		return vector.FromInt64(vals)
	case vector.KindTime:
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(1 << 50)
		}
		return vector.FromTime(vals)
	case vector.KindFloat64:
		vals := make([]float64, n)
		for i := range vals {
			switch rng.Intn(8) {
			case 0:
				vals[i] = math.NaN()
			case 1:
				vals[i] = math.Inf(1)
			case 2:
				vals[i] = math.Inf(-1)
			case 3:
				vals[i] = math.Copysign(0, -1) // negative zero
			default:
				vals[i] = rng.NormFloat64() * 1e9
			}
		}
		return vector.FromFloat64(vals)
	case vector.KindString:
		pool := []string{"", "BHZ", "BHN", "GE", "station-θ", "a\x00b", "repeat", "repeat "}
		vals := make([]string, n)
		for i := range vals {
			vals[i] = pool[rng.Intn(len(pool))]
		}
		return vector.FromString(vals)
	}
	panic("unreachable")
}

// sameValue compares one cell bit-exactly (NaN == NaN, -0 != +0 at the
// bit level — exactly what "byte-identical" demands).
func sameValue(t *testing.T, want, got *vector.Vector, row int) bool {
	t.Helper()
	if want.Kind() == vector.KindFloat64 {
		return math.Float64bits(want.Float64s()[row]) == math.Float64bits(got.Float64s()[row])
	}
	return want.Get(row) == got.Get(row)
}

func assertBatchesEqual(t *testing.T, want, got []*vector.Batch) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("round trip returned %d batches, want %d", len(got), len(want))
	}
	for bi := range want {
		w, g := want[bi], got[bi]
		if w.Len() != g.Len() || w.NumCols() != g.NumCols() {
			t.Fatalf("batch %d shape: got %dx%d, want %dx%d", bi, g.Len(), g.NumCols(), w.Len(), w.NumCols())
		}
		for ci := range w.Cols {
			if w.Cols[ci].Kind() != g.Cols[ci].Kind() {
				t.Fatalf("batch %d col %d kind %s, want %s", bi, ci, g.Cols[ci].Kind(), w.Cols[ci].Kind())
			}
			_, wc := w.Cols[ci].ConstValue()
			if _, gc := g.Cols[ci].ConstValue(); wc != gc {
				t.Fatalf("batch %d col %d: Const %v, want %v", bi, ci, gc, wc)
			}
			for r := 0; r < w.Len(); r++ {
				if !sameValue(t, w.Cols[ci], g.Cols[ci], r) {
					t.Fatalf("batch %d col %d row %d: got %s, want %s",
						bi, ci, r, g.Cols[ci].Format(r), w.Cols[ci].Format(r))
				}
			}
		}
	}
}

func readAll(t *testing.T, path string, model DiskModel, clock *Clock) []*vector.Batch {
	t.Helper()
	r, err := OpenBatchReader(path, model, clock)
	if err != nil {
		t.Fatalf("OpenBatchReader: %v", err)
	}
	defer r.Close()
	var out []*vector.Batch
	for {
		b, err := r.Next()
		if err != nil {
			t.Fatalf("Next (batch %d): %v", len(out), err)
		}
		if b == nil {
			return out
		}
		out = append(out, b)
	}
}

// TestSpillRoundTripProperty is the satellite-1 property test: random
// batches over every vector kind — shared and frozen handles, sliced
// (selection) windows, NaN/±Inf doubles, empty batches, dictionary
// collisions across batches, Const columns alone or mixed with ordinary
// ones in one frame — survive write→read byte-identically, and a Const
// column reads back Const.
func TestSpillRoundTripProperty(t *testing.T) {
	kinds := []vector.Kind{
		vector.KindString, vector.KindInt64, vector.KindTime,
		vector.KindFloat64, vector.KindBool, vector.KindString,
	}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 7919))
		nBatches := rng.Intn(8)
		var batches []*vector.Batch
		for i := 0; i < nBatches; i++ {
			n := rng.Intn(200)
			if rng.Intn(5) == 0 {
				n = 0 // empty batches are valid frames
			}
			cols := make([]*vector.Vector, len(kinds))
			for ci, k := range kinds {
				if rng.Intn(3) == 0 {
					cols[ci] = vector.Const(randomVector(rng, k, 1).Get(0), n)
				} else {
					cols[ci] = randomVector(rng, k, n)
				}
			}
			b := vector.NewBatch(cols...)
			switch rng.Intn(3) {
			case 0:
				b.Freeze() // frozen storage serializes like any other
			case 1:
				if n > 1 {
					lo := rng.Intn(n)
					b = b.Slice(lo, lo+rng.Intn(n-lo)) // aliased selection window
				}
			default:
				b = b.Share() // extra handle on shared storage
			}
			batches = append(batches, b)
		}

		path := filepath.Join(t.TempDir(), "trip.spill")
		clock := &Clock{}
		if err := WriteBatches(path, kinds, batches, SSD(), clock); err != nil {
			t.Fatalf("trial %d: WriteBatches: %v", trial, err)
		}
		wrote := clock.Elapsed()
		if wrote <= 0 {
			t.Errorf("trial %d: writes charged no modeled I/O", trial)
		}
		got := readAll(t, path, SSD(), clock)
		if clock.Elapsed() <= wrote {
			t.Errorf("trial %d: reads charged no modeled I/O", trial)
		}
		assertBatchesEqual(t, batches, got)
	}
}

// TestSpillReadWhileWriting pins the streaming contract the mount
// service relies on: frames already appended are fully readable while
// the writer is still open (no end frame yet), by more than one
// independent reader.
func TestSpillReadWhileWriting(t *testing.T) {
	dir := t.TempDir()
	sf, err := CreateSpillFile(dir, "flight-*.spill")
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Remove()
	kinds := []vector.Kind{vector.KindString, vector.KindFloat64}
	w := NewBatchWriter(sf.File(), kinds, NoCost(), nil)

	mk := func(seed int64) *vector.Batch {
		rng := rand.New(rand.NewSource(seed))
		return vector.NewBatch(randomVector(rng, kinds[0], 50), randomVector(rng, kinds[1], 50))
	}
	var want []*vector.Batch
	readers := make([]*BatchReader, 2)
	for i := 0; i < 6; i++ {
		b := mk(int64(i))
		if err := w.Append(b); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want = append(want, b)
		// Each reader lags the writer by a different amount.
		for ri := range readers {
			if readers[ri] == nil && i >= ri*2 {
				r, err := OpenBatchReader(sf.Path(), NoCost(), nil)
				if err != nil {
					t.Fatalf("reader %d: %v", ri, err)
				}
				defer r.Close()
				readers[ri] = r
			}
		}
		got, err := readers[0].Next()
		if err != nil {
			t.Fatalf("read-behind-write %d: %v", i, err)
		}
		assertBatchesEqual(t, []*vector.Batch{b}, []*vector.Batch{got})
	}
	// The lagging reader catches up over the still-unfinished file.
	for i := 0; i < 6; i++ {
		got, err := readers[1].Next()
		if err != nil {
			t.Fatalf("lagging reader batch %d: %v", i, err)
		}
		assertBatchesEqual(t, []*vector.Batch{want[i]}, []*vector.Batch{got})
	}
}

// TestSpillCorruptionDetected: every mangling of a valid file surfaces
// as ErrCorruptSpill (open or read time), never a panic or a wrong
// decode.
func TestSpillCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	kinds := []vector.Kind{vector.KindString, vector.KindInt64}
	rng := rand.New(rand.NewSource(42))
	batches := []*vector.Batch{
		vector.NewBatch(randomVector(rng, kinds[0], 64), randomVector(rng, kinds[1], 64)),
		vector.NewBatch(randomVector(rng, kinds[0], 64), randomVector(rng, kinds[1], 64)),
	}
	path := filepath.Join(dir, "good.spill")
	if err := WriteBatches(path, kinds, batches, NoCost(), nil); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	mangle := func(name string, f func([]byte) []byte) {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, f(append([]byte{}, good...)), 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenBatchReader(p, NoCost(), nil)
		if err != nil {
			if !errors.Is(err, ErrCorruptSpill) {
				t.Errorf("%s: open error %v, want ErrCorruptSpill", name, err)
			}
			return
		}
		defer r.Close()
		for {
			b, err := r.Next()
			if err != nil {
				if !errors.Is(err, ErrCorruptSpill) {
					t.Errorf("%s: read error %v, want ErrCorruptSpill", name, err)
				}
				return
			}
			if b == nil {
				t.Errorf("%s: mangled file decoded cleanly", name)
				return
			}
		}
	}
	mangle("magic.spill", func(b []byte) []byte { b[0] ^= 0xFF; return b })
	mangle("kind.spill", func(b []byte) []byte { b[12] = 99; return b })
	mangle("trunc-frame.spill", func(b []byte) []byte { return b[:len(b)-20] })
	mangle("no-end.spill", func(b []byte) []byte { return b[:len(b)-5] })
	mangle("tag.spill", func(b []byte) []byte { b[len(spillMagic)+4+len(kinds)] = 77; return b })
	mangle("empty.spill", func(b []byte) []byte { return b[:0] })
}

// TestSpillFilePairing pins the SpillFile ownership contract the
// releasecheck analyzer enforces statically: Remove deletes, Adopt
// keeps, and a second settle of either flavor panics.
func TestSpillFilePairing(t *testing.T) {
	dir := t.TempDir()
	sf, err := CreateSpillFile(dir, "t-*.spill")
	if err != nil {
		t.Fatal(err)
	}
	path := sf.Path()
	sf.Remove()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("Remove left %s behind", path)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Remove did not panic")
			}
		}()
		sf.Remove()
	}()

	sf2, err := CreateSpillFile(dir, "t-*.spill")
	if err != nil {
		t.Fatal(err)
	}
	kept, err := sf2.Adopt()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(kept); err != nil {
		t.Errorf("Adopt did not keep %s: %v", kept, err)
	}
}
