package vector

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func testBatch(n int) *Batch {
	ids := make([]int64, n)
	vals := make([]float64, n)
	names := make([]string, n)
	flags := make([]bool, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		vals[i] = float64(i) * 1.5
		names[i] = fmt.Sprintf("row-%d", i)
		flags[i] = i%2 == 0
	}
	return NewBatch(FromInt64(ids), FromFloat64(vals), FromString(names), FromBool(flags))
}

func formatAll(b *Batch) []string {
	out := make([]string, b.Len())
	for i := range out {
		out[i] = b.FormatRow(i)
	}
	return out
}

func TestShareIsolatesMutations(t *testing.T) {
	base := testBatch(16)
	want := formatAll(base)
	sh := base.Share()
	if !base.Shared() || !sh.Shared() {
		t.Fatal("Share did not mark storage shared")
	}

	// Mutating the share materializes a private copy; base is untouched.
	before := CowCopies()
	sh.Cols[0].Set(0, Int64(-1))
	sh.Cols[2].Set(3, Str("mutated"))
	if got := formatAll(base); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("base corrupted by share mutation:\n%v\nwant\n%v", got, want)
	}
	if sh.Cols[0].Get(0).I != -1 || sh.Cols[2].Get(3).S != "mutated" {
		t.Fatal("share did not see its own mutation")
	}
	if CowCopies()-before != 2 {
		t.Errorf("CowCopies delta = %d, want 2 (one per mutated column)", CowCopies()-before)
	}

	// The mutated columns are now private: further writes copy nothing.
	before = CowCopies()
	sh.Cols[0].Set(1, Int64(-2))
	if CowCopies() != before {
		t.Error("exclusively owned column copied again")
	}
}

func TestSliceAliasesUntilWritten(t *testing.T) {
	base := testBatch(10)
	sl := base.Slice(2, 5)
	if sl.Len() != 3 {
		t.Fatalf("slice len = %d", sl.Len())
	}
	// Reads alias.
	if sl.Cols[0].Get(0).I != 2 {
		t.Fatal("slice window wrong")
	}
	// An append on the slice can never bleed into the parent's tail, and
	// a write through the slice materializes it away from the parent.
	sl.Cols[0].AppendInt64(99)
	sl.Cols[0].Set(0, Int64(-7))
	if base.Cols[0].Get(2).I != 2 || base.Cols[0].Get(5).I != 5 {
		t.Fatal("parent corrupted by slice mutation")
	}
	// And a parent write after slicing leaves existing slices untouched.
	sl2 := base.Slice(0, 3)
	base.Cols[1].Set(0, Float64(-1))
	if sl2.Cols[1].Get(0).F != 0 {
		t.Fatal("slice observed parent mutation")
	}
}

func TestFreezeForcesCopyOnMutate(t *testing.T) {
	v := FromInt64([]int64{1, 2, 3})
	v.Freeze()
	before := CowCopies()
	v.Set(0, Int64(9))
	if CowCopies()-before != 1 {
		t.Error("mutating a frozen vector did not copy")
	}
	if v.Get(0).I != 9 {
		t.Error("mutation lost")
	}
}

func TestResetDetachesSharedStorage(t *testing.T) {
	v := FromInt64([]int64{1, 2, 3})
	sh := v.Share()
	v.Reset()
	v.AppendInt64(42)
	if sh.Len() != 3 || sh.Get(0).I != 1 {
		t.Fatal("Reset+append corrupted the share")
	}
	if v.Len() != 1 || v.Get(0).I != 42 {
		t.Fatal("Reset vector wrong")
	}
	// Exclusive reset reuses storage in place.
	x := New(KindFloat64, 8)
	x.AppendFloat64(1)
	before := CowCopies()
	x.Reset()
	x.AppendFloat64(2)
	if CowCopies() != before {
		t.Error("exclusive Reset copied")
	}
}

func TestPermuteMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(64)
		b := testBatch(n)
		perm := rng.Perm(n)
		permCopy := append([]int(nil), perm...)
		want := formatAll(b.Gather(perm))
		b.Permute(perm)
		if got := formatAll(b); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: Permute != Gather\n%v\nwant\n%v", trial, got, want)
		}
		if fmt.Sprint(perm) != fmt.Sprint(permCopy) {
			t.Fatalf("trial %d: perm not restored: %v != %v", trial, perm, permCopy)
		}
	}
}

func TestPermuteOnShareLeavesOriginal(t *testing.T) {
	b := testBatch(8)
	want := formatAll(b)
	sh := b.Share()
	sh.Permute([]int{7, 6, 5, 4, 3, 2, 1, 0})
	if got := formatAll(b); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("Permute of a share corrupted the original")
	}
	if sh.Cols[0].Get(0).I != 7 {
		t.Fatal("share not permuted")
	}
}

func TestBytes(t *testing.T) {
	b := NewBatch(FromInt64([]int64{1, 2}), FromBool([]bool{true, false}), FromString([]string{"ab", "c"}))
	want := int64(2*8 + 2 + (2 + 16) + (1 + 16))
	if got := b.Bytes(); got != want {
		t.Errorf("Bytes = %d, want %d", got, want)
	}
}

func TestForceCloneSharesRestoresDeepCopies(t *testing.T) {
	prev := SetForceCloneShares(true)
	defer SetForceCloneShares(prev)
	b := testBatch(4)
	sh := b.Share()
	if sh.Shared() || b.Shared() {
		t.Fatal("clone mode still shared storage")
	}
}

// TestConcurrentSharedReadsAndWrites is the race check: many goroutines
// read one shared batch while others mutate their own shares of it.
func TestConcurrentSharedReadsAndWrites(t *testing.T) {
	base := testBatch(128)
	base.Freeze()
	want := formatAll(base)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				// Reader: repeatedly scan the shared storage.
				for i := 0; i < 50; i++ {
					if got := formatAll(base); len(got) != len(want) {
						t.Error("reader saw wrong length")
						return
					}
				}
			} else {
				// Writer: mutate a private share.
				sh := base.Share()
				for i := 0; i < 50; i++ {
					sh.Cols[1].Set(i, Float64(float64(-g*1000-i)))
				}
				for i := 0; i < 50; i++ {
					if sh.Cols[1].Get(i).F != float64(-g*1000-i) {
						t.Error("writer lost its own mutation")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := formatAll(base); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("shared base corrupted under concurrency")
	}
}
