package resultcache

import (
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/vector"
)

// fuzzSpills are the spill files every FuzzManifest input finds beside
// its manifest, by file name.
var fuzzSpills = map[string]*exec.Materialized{
	"result-a.spill": mat(1, 2, 3),
	"result-b.spill": {
		Schema: []plan.ColInfo{{Name: "s", Kind: vector.KindString}, {Name: "f", Kind: vector.KindFloat64}},
		Batches: []*vector.Batch{vector.NewBatch(
			vector.FromString([]string{"ISK", "ANTO"}), vector.FromFloat64([]float64{1.5, -2}))},
	},
}

// sameMat reports whether a and b hold the same schema kinds and rows.
func sameMat(a, b *exec.Materialized) bool {
	if len(a.Schema) != len(b.Schema) || a.Rows() != b.Rows() {
		return false
	}
	for i := range a.Schema {
		if a.Schema[i].Kind != b.Schema[i].Kind {
			return false
		}
	}
	fa, fb := a.Flatten(), b.Flatten()
	for i := 0; i < fa.Len(); i++ {
		for j := range fa.Cols {
			if !vector.Equal(fa.Cols[j].Get(i), fb.Cols[j].Get(i)) {
				return false
			}
		}
	}
	return true
}

// FuzzManifest: arbitrary bytes as manifest.json never panic New. The
// cache starts cold or serves only entries whose spill files decode to
// the schema the manifest claims, touches no file but its own, and its
// byte gauges match what it serves. The seed corpus is committed under
// testdata/fuzz/FuzzManifest.
func FuzzManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for name, m := range fuzzSpills {
			kinds := make([]vector.Kind, len(m.Schema))
			for i, c := range m.Schema {
				kinds[i] = c.Kind
			}
			if err := storage.WriteBatches(filepath.Join(dir, name), kinds, m.Batches, storage.DiskModel{}, nil); err != nil {
				t.Fatal(err)
			}
		}
		foreign := filepath.Join(dir, "notes.txt")
		if err := os.WriteFile(foreign, []byte("not the cache's"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}

		c := New(Config{SpillDir: dir})
		st := c.Stats()
		if st.BytesOnDisk < 0 || st.BytesResident != 0 || st.Entries != 0 || int64(st.DiskEntries) != st.WarmedFromDisk {
			t.Fatalf("warmed stats = %+v", st)
		}
		var m manifest
		if json.Unmarshal(data, &m) != nil {
			if st.DiskEntries != 0 || st.BytesOnDisk != 0 {
				t.Fatalf("unparsable manifest warmed the cache: %+v", st)
			}
			return
		}
		var served int64
		seen := make(map[plan.Fingerprint]bool)
		for _, me := range m.Entries {
			b, err := hex.DecodeString(me.Fingerprint)
			if err != nil || len(b) != len(plan.Fingerprint{}) {
				continue
			}
			fp := plan.Fingerprint(b)
			got, ok := c.Get(fp)
			if !ok || seen[fp] {
				seen[fp] = true
				continue
			}
			seen[fp] = true
			want := fuzzSpills[filepath.Base(me.File)]
			if want == nil || !sameMat(got, want) {
				t.Fatalf("served %q for file %q, which does not hold it", me.Fingerprint, me.File)
			}
			served += matBytes(got)
		}
		st = c.Stats()
		if st.DiskEntries != 0 || st.BytesOnDisk != 0 || st.BytesResident != served {
			t.Fatalf("after probing every entry: %+v, served %d bytes", st, served)
		}
		if _, err := os.Stat(foreign); err != nil {
			t.Fatalf("the cache removed a file it does not own: %v", err)
		}
	})
}
