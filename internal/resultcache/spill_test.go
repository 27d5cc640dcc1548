package resultcache

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/vector"
)

func countSpillFiles(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, de := range ents {
		if ok, _ := filepath.Match("result-*.spill", de.Name()); ok {
			n++
		}
	}
	return n
}

// TestDemoteInsteadOfEvict: with a spill directory configured, byte
// pressure demotes the LRU entry to disk instead of dropping it, in a
// file named after its fingerprint, and a later probe for it promotes it
// back — serving the original rows with zero re-executions. The same
// fingerprint can be demoted, promoted and demoted again, and the
// directory never holds more than the one file per disk entry.
func TestDemoteInsteadOfEvict(t *testing.T) {
	dir := t.TempDir()
	per := matBytes(mat(1, 2, 3))
	c := New(Config{MaxBytes: per, SpillDir: dir})
	onDisk := func(step, name string) {
		t.Helper()
		if n := countSpillFiles(t, dir); n != 1 {
			t.Fatalf("%s: %d result files, want 1", step, n)
		}
		if _, err := os.Stat(filepath.Join(dir, "result-"+fp(name).String()+".spill")); err != nil {
			t.Fatalf("%s: %q is not in its fingerprint's file: %v", step, name, err)
		}
	}
	served := func(step, name string, want ...int64) {
		t.Helper()
		got, ok := c.Get(fp(name))
		if !ok || len(got.Batches) != 1 || !slices.Equal(got.Batches[0].Cols[0].Int64s(), want) {
			t.Fatalf("%s: %q served %v %v, want rows %v", step, name, got, ok, want)
		}
	}
	if !c.Put(fp("old"), "", mat(1, 2, 3), time.Second) {
		t.Fatal("first store rejected")
	}
	if !c.Put(fp("new"), "", mat(4, 5, 6), time.Second) {
		t.Fatal("second store rejected")
	}
	st := c.Stats()
	if st.Demotions != 1 || st.Evictions != 0 {
		t.Fatalf("stats after pressure = %+v, want one demotion and no evictions", st)
	}
	if st.Entries != 1 || st.DiskEntries != 1 || st.BytesOnDisk != per {
		t.Fatalf("occupancy = %+v", st)
	}
	onDisk("first demotion", "old")

	// Promotion re-applies byte pressure: "new" is demoted in turn, and
	// the promoted entry's file is gone.
	served("promote old", "old", 1, 2, 3)
	onDisk("promote old", "new")
	// Promoting "new" demotes "old" a second time, into the same name.
	served("promote new", "new", 4, 5, 6)
	onDisk("demote old again", "old")
	served("promote old again", "old", 1, 2, 3)
	onDisk("promote old again", "new")
	st = c.Stats()
	if st.Demotions != 4 || st.Promotions != 3 || st.Evictions != 0 {
		t.Fatalf("stats after the round trips = %+v", st)
	}
	if st.Entries != 1 || st.DiskEntries != 1 {
		t.Fatalf("occupancy after the round trips = %+v", st)
	}
}

// TestDemoteFailureEvicts: when the spill file cannot be written, byte
// pressure evicts the victim as if the disk tier were off, and leaves no
// file behind.
func TestDemoteFailureEvicts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	per := matBytes(mat(1, 2, 3))
	c := New(Config{MaxBytes: per, SpillDir: dir})
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	c.Put(fp("old"), "", mat(1, 2, 3), time.Second)
	if !c.Put(fp("new"), "", mat(4, 5, 6), time.Second) {
		t.Fatal("store rejected")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Demotions != 0 || st.DiskEntries != 0 || st.BytesOnDisk != 0 {
		t.Fatalf("stats after a failed demotion = %+v, want one eviction and an empty disk tier", st)
	}
	if _, ok := c.Get(fp("old")); ok {
		t.Fatal("evicted entry still served")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("failed demotion created %s: %v", dir, err)
	}
}

// TestDiskTierHasItsOwnLRU: the disk tier's byte budget drops the
// oldest demotion for real (counted as DiskEvictions), and like the
// resident tier a single over-budget entry may remain alone.
func TestDiskTierHasItsOwnLRU(t *testing.T) {
	dir := t.TempDir()
	per := matBytes(mat(1, 2, 3))
	c := New(Config{MaxBytes: per, SpillDir: dir, DiskMaxBytes: per})
	c.Put(fp("a"), "", mat(1, 2, 3), time.Second)
	c.Put(fp("b"), "", mat(4, 5, 6), time.Second) // demotes a
	c.Put(fp("c"), "", mat(7, 8, 9), time.Second) // demotes b, disk-evicts a
	st := c.Stats()
	if st.Demotions != 2 || st.DiskEvictions != 1 || st.DiskEntries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if _, ok := c.Get(fp("a")); ok {
		t.Fatal("disk-evicted entry still served")
	}
	if got, ok := c.Get(fp("b")); !ok || got.Rows() != 3 {
		t.Fatal("surviving spilled entry lost")
	}
	if countSpillFiles(t, dir) > 1 {
		t.Fatal("disk eviction leaked a spill file")
	}
}

// TestBumpEpochClearsDiskTier: invalidation drops spilled entries and
// their files — pre-change results must not warm a later process.
func TestBumpEpochClearsDiskTier(t *testing.T) {
	dir := t.TempDir()
	per := matBytes(mat(1, 2, 3))
	c := New(Config{MaxBytes: per, SpillDir: dir})
	c.Put(fp("a"), "", mat(1, 2, 3), time.Second)
	c.Put(fp("b"), "", mat(4, 5, 6), time.Second)
	c.BumpEpoch()
	st := c.Stats()
	if st.Entries != 0 || st.DiskEntries != 0 || st.BytesOnDisk != 0 {
		t.Fatalf("occupancy after bump = %+v", st)
	}
	if st.Invalidations != 2 {
		t.Fatalf("Invalidations = %d, want 2", st.Invalidations)
	}
	if countSpillFiles(t, dir) != 0 {
		t.Fatal("epoch bump left spill files behind")
	}
}

// TestCloseReopenWarmsCache is the restart contract: Close persists
// every entry plus the manifest; a new cache over the same directory
// serves the same fingerprints — including semantic subsumption probes
// — without any execution, at the preserved epoch.
func TestCloseReopenWarmsCache(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{SpillDir: dir})
	c.BumpEpoch() // a non-zero epoch must survive the restart
	sub := subInfo("bucket", 0, 100)
	if !c.PutAt(fp("plain"), "s1", mat(1, 2, 3), time.Second, c.Epoch(), nil) {
		t.Fatal("store rejected")
	}
	if !c.PutAt(fp("wide"), "s2", mat(4, 5, 6, 7), 2*time.Second, c.Epoch(), sub) {
		t.Fatal("indexed store rejected")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	c2 := New(Config{SpillDir: dir})
	st := c2.Stats()
	if st.WarmedFromDisk != 2 || st.DiskEntries != 2 || st.Epoch != 1 {
		t.Fatalf("reopened stats = %+v", st)
	}
	got, ok := c2.Get(fp("plain"))
	if !ok || got.Rows() != 3 || got.Batches[0].Cols[0].Int64s()[2] != 3 {
		t.Fatalf("warmed entry not served: %v %v", got, ok)
	}
	hit, ok := c2.GetSubsuming(fp("narrow"), subInfo("bucket", 10, 20))
	if !ok || hit.Fp != fp("wide") || hit.Mat.Rows() != 4 || hit.Cost != 2*time.Second {
		t.Fatalf("warmed subsumption probe = %+v ok=%v", hit, ok)
	}
	// Served shares stay copy-on-write isolated, as with resident entries.
	served, err := exec.ServeCachedResult(got, &exec.Env{Mounts: &exec.MountStats{}})
	if err != nil {
		t.Fatal(err)
	}
	served.Batches[0].Cols[0].Set(0, vector.Int64(99))
	again, _ := c2.Get(fp("plain"))
	if again.Batches[0].Cols[0].Int64s()[0] != 1 {
		t.Fatal("mutation through a served share reached the cache copy")
	}
}

// TestReopenIgnoresCorruptState: a truncated spill file, a garbage
// manifest, and unreferenced leftovers must never fail the open — the
// cache degrades to cold (or partially cold) and sweeps the junk.
func TestReopenIgnoresCorruptState(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{SpillDir: dir})
	c.Put(fp("a"), "", mat(1, 2, 3), time.Second)
	c.Put(fp("b"), "", mat(4, 5, 6), time.Second)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Truncate one entry's file: it warms but the first probe drops it.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if ok, _ := filepath.Match("result-*.spill", de.Name()); ok {
			p := filepath.Join(dir, de.Name())
			if err := os.Truncate(p, 10); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	c2 := New(Config{SpillDir: dir})
	okA, okB := 0, 0
	if m, ok := c2.Get(fp("a")); ok && m.Rows() == 3 {
		okA = 1
	}
	if m, ok := c2.Get(fp("b")); ok && m.Rows() == 3 {
		okB = 1
	}
	if okA+okB != 1 {
		t.Fatalf("exactly one entry should survive the truncation, got a=%d b=%d", okA, okB)
	}

	// Garbage manifest: cold start, stray spill files swept.
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, "manifest.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir2, "result-stray.spill"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	c3 := New(Config{SpillDir: dir2})
	if st := c3.Stats(); st.WarmedFromDisk != 0 || st.DiskEntries != 0 {
		t.Fatalf("corrupt manifest warmed entries: %+v", st)
	}
	if countSpillFiles(t, dir2) != 0 {
		t.Fatal("unreferenced spill file not swept")
	}
	// And the cache still works after the cold start.
	if !c3.Put(fp("fresh"), "", mat(9), time.Second) {
		t.Fatal("cache unusable after corrupt reopen")
	}
}

// TestReopenRejectsAnotherFingerprintsFile: a manifest entry whose file
// is named after a different fingerprint is not warmed, so demoting that
// fingerprint later cannot change what the entry serves.
func TestReopenRejectsAnotherFingerprintsFile(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{SpillDir: dir})
	c.Put(fp("x"), "", mat(1, 2, 3), time.Second)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	own, other := spillName(fp("x")), spillName(fp("y"))
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.ReplaceAll(data, []byte(own), []byte(other))
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, own), filepath.Join(dir, other)); err != nil {
		t.Fatal(err)
	}

	c2 := New(Config{SpillDir: dir})
	if st := c2.Stats(); st.WarmedFromDisk != 0 || st.DiskEntries != 0 {
		t.Fatalf("entry in another fingerprint's file warmed: %+v", st)
	}
	if countSpillFiles(t, dir) != 0 {
		t.Fatal("unreferenced spill file not swept")
	}
	if _, ok := c2.Get(fp("x")); ok {
		t.Fatal("rejected entry served")
	}
}

// TestWarmedEntriesKeepKinds: every vector kind round-trips through a
// restart, not just int64 results.
func TestWarmedEntriesKeepKinds(t *testing.T) {
	dir := t.TempDir()
	m := &exec.Materialized{
		Schema: []plan.ColInfo{
			{Name: "s", Kind: vector.KindString},
			{Name: "f", Kind: vector.KindFloat64},
			{Name: "b", Kind: vector.KindBool},
			{Name: "t", Kind: vector.KindTime},
		},
		Batches: []*vector.Batch{vector.NewBatch(
			vector.FromString([]string{"x", "y"}),
			vector.FromFloat64([]float64{1.5, -2.5}),
			vector.FromBool([]bool{true, false}),
			vector.FromTime([]int64{100, 200}),
		)},
	}
	c := New(Config{SpillDir: dir})
	if !c.Put(fp("mixed"), "", m, time.Second) {
		t.Fatal("store rejected")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := New(Config{SpillDir: dir})
	got, ok := c2.Get(fp("mixed"))
	if !ok || got.Rows() != 2 {
		t.Fatalf("mixed-kind entry lost: %v %v", got, ok)
	}
	b := got.Batches[0]
	if b.Cols[0].Strings()[1] != "y" || b.Cols[1].Float64s()[1] != -2.5 ||
		b.Cols[2].Bools()[0] != true || b.Cols[3].Kind() != vector.KindTime {
		t.Fatalf("warmed content mismatch: %v", b)
	}
	if got.Schema[0].Name != "s" || got.Schema[3].Kind != vector.KindTime {
		t.Fatalf("warmed schema mismatch: %+v", got.Schema)
	}
}
