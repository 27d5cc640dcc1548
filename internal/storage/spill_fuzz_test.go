package storage

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vector"
)

// fuzzSeedFrames is a small spill file of every frame shape: ordinary
// columns, Const columns (NaN among them), a mixed frame, an empty batch,
// and strings first seen in a Const and then reused by code.
func fuzzSeedFrames(t testing.TB) []byte {
	kinds := []vector.Kind{vector.KindString, vector.KindInt64, vector.KindTime, vector.KindFloat64, vector.KindBool}
	batches := []*vector.Batch{
		vector.NewBatch(vector.Const(vector.Str("f.mseed"), 3), vector.Const(vector.Int64(7), 3),
			vector.FromTime([]int64{1, 2, 3}), vector.FromFloat64([]float64{0.5, math.NaN(), -1}),
			vector.Const(vector.Bool(true), 3)),
		vector.NewBatch(vector.FromString([]string{"f.mseed", "g.mseed"}), vector.FromInt64([]int64{1, 2}),
			vector.Const(vector.Time(9), 2), vector.Const(vector.Float64(math.NaN()), 2),
			vector.FromBool([]bool{false, true})),
		vector.NewBatch(vector.Const(vector.Str(""), 0), vector.FromInt64(nil), vector.FromTime(nil),
			vector.FromFloat64(nil), vector.FromBool(nil)),
	}
	path := filepath.Join(t.TempDir(), "seed.spill")
	if err := WriteBatches(path, kinds, batches, NoCost(), nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzBatchReader feeds arbitrary bytes to the spill reader: it must
// never panic, and every frame must decode to a batch or fail with
// ErrCorruptSpill.
func FuzzBatchReader(f *testing.F) {
	seed := fuzzSeedFrames(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.spill")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenBatchReader(path, NoCost(), nil)
		if err != nil {
			if !errors.Is(err, ErrCorruptSpill) {
				t.Fatalf("open: %v is not ErrCorruptSpill", err)
			}
			return
		}
		defer r.Close()
		for {
			b, err := r.Next()
			if err != nil {
				if !errors.Is(err, ErrCorruptSpill) {
					t.Fatalf("next: %v is not ErrCorruptSpill", err)
				}
				return
			}
			if b == nil {
				return
			}
			for _, c := range b.Cols {
				if c.Len() != b.Len() {
					t.Fatalf("column of %d rows in a batch of %d", c.Len(), b.Len())
				}
			}
		}
	})
}

// TestSpillV1ReadsAsCorrupt: a file of the format before per-column forms
// fails the magic check as ErrCorruptSpill, which the disk tier treats as
// a cold start.
func TestSpillV1ReadsAsCorrupt(t *testing.T) {
	data := fuzzSeedFrames(t)
	copy(data, "RSPILL1\n")
	path := filepath.Join(t.TempDir(), "v1.spill")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenBatchReader(path, NoCost(), nil); !errors.Is(err, ErrCorruptSpill) {
		t.Fatalf("v1 file: %v, want ErrCorruptSpill", err)
	}
}
