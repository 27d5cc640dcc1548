package lru

import (
	"math/rand"
	"slices"
	"testing"
)

// keys lists l's keys, most recently used first.
func keys[K comparable, V any](l *List[K, V]) []K {
	var ks []K
	l.All(func(k K, _ V) { ks = append(ks, k) })
	return ks
}

func wantOrder(t *testing.T, l *List[string, int], want ...string) {
	t.Helper()
	if got := keys(l); !slices.Equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestGetTouchesPeekDoesNot(t *testing.T) {
	l := New[string, int](0)
	l.Put("a", 1, 1)
	l.Put("b", 2, 1)
	l.Put("c", 3, 1)
	wantOrder(t, l, "c", "b", "a")
	if v, ok := l.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %d, %v", v, ok)
	}
	wantOrder(t, l, "c", "b", "a")
	if v, ok := l.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	wantOrder(t, l, "a", "c", "b")
	if _, ok := l.Get("z"); ok {
		t.Fatal("Get of a missing key reported a hit")
	}
	if _, ok := l.Peek("z"); ok {
		t.Fatal("Peek of a missing key reported a hit")
	}
	wantOrder(t, l, "a", "c", "b")
}

func TestPutReplacesAndRecosts(t *testing.T) {
	l := New[string, int](0)
	l.Put("a", 1, 10)
	l.Put("b", 2, 20)
	l.Put("a", 3, 5)
	if l.Len() != 2 || l.Cost() != 25 {
		t.Fatalf("Len, Cost = %d, %d; want 2, 25", l.Len(), l.Cost())
	}
	if v, _ := l.Peek("a"); v != 3 {
		t.Fatalf("a = %d, want the replacement 3", v)
	}
	wantOrder(t, l, "a", "b")
}

func TestEvictKeepsOneOversizedEntry(t *testing.T) {
	l := New[string, int](10)
	l.Put("a", 1, 4)
	l.Put("b", 2, 4)
	var dropped []string
	drop := func(k string, _ int) {
		if _, ok := l.Peek(k); ok {
			t.Errorf("%s handed to fn while still in the list", k)
		}
		dropped = append(dropped, k)
	}
	l.Evict(drop)
	if dropped != nil {
		t.Fatalf("evicted %v within budget", dropped)
	}
	l.Put("big", 3, 100)
	l.Evict(drop)
	if !slices.Equal(dropped, []string{"a", "b"}) {
		t.Fatalf("evicted %v, want [a b] oldest first", dropped)
	}
	wantOrder(t, l, "big")
	if l.Cost() != 100 {
		t.Fatalf("Cost = %d, want 100", l.Cost())
	}
}

func TestUnlimitedNeverEvicts(t *testing.T) {
	for _, budget := range []int64{0, -1} {
		l := New[int, int](budget)
		for i := range 100 {
			l.Put(i, i, 1<<40)
		}
		l.Evict(func(int, int) { t.Fatalf("budget %d evicted", budget) })
		if l.Len() != 100 {
			t.Fatalf("budget %d: Len = %d", budget, l.Len())
		}
	}
}

func TestPutOldestAppendsAtTail(t *testing.T) {
	l := New[string, int](0)
	l.PutOldest("a", 1, 1) // a record read most recent first
	l.PutOldest("b", 2, 1)
	l.PutOldest("c", 3, 1)
	wantOrder(t, l, "a", "b", "c")
	if k, _, ok := l.Oldest(); !ok || k != "c" {
		t.Fatalf("Oldest = %q, %v; want c", k, ok)
	}
	l.PutOldest("a", 4, 1)
	wantOrder(t, l, "b", "c", "a")
}

func TestAllMayRemoveVisitedEntry(t *testing.T) {
	l := New[int, int](0)
	for i := range 6 {
		l.Put(i, i, 1)
	}
	var seen []int
	l.All(func(k, v int) {
		seen = append(seen, k)
		if v%2 == 0 {
			l.Remove(k)
		}
	})
	if !slices.Equal(seen, []int{5, 4, 3, 2, 1, 0}) {
		t.Fatalf("visited %v", seen)
	}
	if got := keys(l); !slices.Equal(got, []int{5, 3, 1}) || l.Cost() != 3 {
		t.Fatalf("after removal: %v, cost %d", got, l.Cost())
	}
}

func TestOldestAndClear(t *testing.T) {
	l := New[string, int](0)
	if _, _, ok := l.Oldest(); ok {
		t.Fatal("empty list has an oldest entry")
	}
	l.Put("a", 1, 2)
	l.Put("b", 2, 3)
	l.Clear()
	if l.Len() != 0 || l.Cost() != 0 || keys(l) != nil {
		t.Fatalf("after Clear: Len %d, Cost %d, keys %v", l.Len(), l.Cost(), keys(l))
	}
	l.Put("c", 3, 1)
	wantOrder(t, l, "c")
}

// TestMatchesReferenceModel drives a List and a slice (most recently
// used first) with the same random operations and compares order, Len
// and Cost after each one.
func TestMatchesReferenceModel(t *testing.T) {
	type ent struct{ k, v, cost int }
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		budget := int64(rng.Intn(40)) - 5 // some runs unlimited
		l := New[int, int](budget)
		var ref []ent
		find := func(k int) int {
			return slices.IndexFunc(ref, func(e ent) bool { return e.k == k })
		}
		for op := range 2000 {
			k := rng.Intn(12)
			switch rng.Intn(5) {
			case 0: // Put
				v, cost := rng.Int(), rng.Intn(10)
				l.Put(k, v, int64(cost))
				if i := find(k); i >= 0 {
					ref = slices.Delete(ref, i, i+1)
				}
				ref = slices.Insert(ref, 0, ent{k, v, cost})
			case 1: // Get
				v, ok := l.Get(k)
				i := find(k)
				if ok != (i >= 0) || ok && v != ref[i].v {
					t.Fatalf("seed %d op %d: Get(%d) = %d, %v", seed, op, k, v, ok)
				}
				if ok {
					e := ref[i]
					ref = slices.Insert(slices.Delete(ref, i, i+1), 0, e)
				}
			case 2: // Peek
				v, ok := l.Peek(k)
				if i := find(k); ok != (i >= 0) || ok && v != ref[i].v {
					t.Fatalf("seed %d op %d: Peek(%d) = %d, %v", seed, op, k, v, ok)
				}
			case 3: // Remove
				v, ok := l.Remove(k)
				i := find(k)
				if ok != (i >= 0) || ok && v != ref[i].v {
					t.Fatalf("seed %d op %d: Remove(%d) = %d, %v", seed, op, k, v, ok)
				}
				if ok {
					ref = slices.Delete(ref, i, i+1)
				}
			case 4: // Evict
				var got []int
				l.Evict(func(k, _ int) { got = append(got, k) })
				var want []int
				for {
					total := 0
					for _, e := range ref {
						total += e.cost
					}
					if budget <= 0 || int64(total) <= budget || len(ref) <= 1 {
						break
					}
					want = append(want, ref[len(ref)-1].k)
					ref = ref[:len(ref)-1]
				}
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: evicted %v, want %v", seed, op, got, want)
				}
			}
			var wantKeys []int
			var wantCost int64
			for _, e := range ref {
				wantKeys = append(wantKeys, e.k)
				wantCost += int64(e.cost)
			}
			if got := keys(l); !slices.Equal(got, wantKeys) || l.Len() != len(ref) || l.Cost() != wantCost {
				t.Fatalf("seed %d op %d: order %v len %d cost %d, want %v len %d cost %d",
					seed, op, got, l.Len(), l.Cost(), wantKeys, len(ref), wantCost)
			}
		}
	}
}
