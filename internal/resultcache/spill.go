// Disk tier of the result cache: instead of evicting a cold entry under
// byte pressure, the cache demotes it — the frozen materialization is
// written whole to SpillDir/result-<fingerprint hex>.spill
// (internal/storage batch spill format) and only the entry's metadata
// stays resident. A later hit promotes it back through the ordinary
// result-scan share path. The tier has its own byte budget and LRU
// (demotion recency), and persists across restarts: Close
// demotes everything still resident and writes a manifest
// (fingerprint, subsumption summary, invalidation epoch per entry), and
// New over the same spill directory warms the cache from it, so repeat
// queries after a restart are served with zero executions. Corrupt or
// truncated spill files and manifests are ignored, never fatal: a bad
// manifest means a cold start, a bad entry file means a miss.

package resultcache

import (
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/vector"
)

// spillPattern matches the cache's spill files (spillName's
// result-<fingerprint hex>.spill, and the random names older builds
// wrote); the cache reads and removes no other file in its directory.
const spillPattern = "result-*.spill"

// spillEnabled reports whether the disk tier is configured.
func (c *Cache) spillEnabled() bool { return c.cfg.SpillDir != "" }

// spillName is the file a demoted entry is written to. A fingerprint has
// at most one entry across both tiers, so the name is unique in SpillDir.
func spillName(fp plan.Fingerprint) string { return "result-" + fp.String() + ".spill" }

// demoteLocked moves an entry that has left the resident tier to the
// disk tier, in its spillName file. On any I/O failure it reports false
// and leaves the entry as it was — the caller falls back to plain
// eviction, so a full or broken disk degrades to the spill-off behavior
// instead of erroring.
func (c *Cache) demoteLocked(e *entry) bool {
	kinds := make([]vector.Kind, len(e.schema))
	for i, ci := range e.schema {
		kinds[i] = ci.Kind
	}
	path := filepath.Join(c.cfg.SpillDir, spillName(e.fp))
	if storage.WriteBatches(path, kinds, e.mat.Batches, c.cfg.Disk, c.cfg.Clock) != nil {
		return false
	}
	e.mat = nil
	e.path = path
	c.disk.Put(e.fp, e, e.bytes)
	c.demotions++
	c.evictDiskLocked()
	return true
}

// promoteLocked loads an entry that has left the disk tier back into
// the resident tier and returns its materialization. A corrupt or
// missing spill file, or one whose columns are not the entry's schema,
// drops the entry silently — the probe becomes a miss, never an error.
func (c *Cache) promoteLocked(e *entry) (*exec.Materialized, bool) {
	batches, ok := c.readSpill(e)
	if !ok {
		c.dropLocked(e)
		return nil, false
	}
	mat := &exec.Materialized{Schema: e.schema, Batches: batches}
	mat.Freeze()
	os.Remove(e.path)
	e.path = ""
	e.mat = mat
	e.bytes = matBytes(mat)
	c.res.Put(e.fp, e, e.bytes)
	c.promotions++
	c.evictLocked()
	return mat, true
}

// readSpill decodes a spilled entry's file, reporting false if it is
// missing, corrupt or not of the entry's schema.
func (c *Cache) readSpill(e *entry) ([]*vector.Batch, bool) {
	r, err := storage.OpenBatchReader(e.path, c.cfg.Disk, c.cfg.Clock)
	if err != nil {
		return nil, false
	}
	defer r.Close()
	if !slices.EqualFunc(r.Kinds(), e.schema, func(k vector.Kind, ci plan.ColInfo) bool { return k == ci.Kind }) {
		return nil, false
	}
	var batches []*vector.Batch
	for {
		b, err := r.Next()
		if err != nil {
			return nil, false
		}
		if b == nil {
			return batches, true
		}
		batches = append(batches, b)
	}
}

// evictDiskLocked enforces the disk-tier byte budget, oldest demotion
// first.
func (c *Cache) evictDiskLocked() {
	c.disk.Evict(func(_ plan.Fingerprint, e *entry) {
		c.dropLocked(e)
		c.diskEvictions++
	})
}

// Close demotes every resident entry to the disk tier and writes the
// manifest, so a cache reopened over the same spill directory serves
// repeat queries without re-executing them. Without a spill directory it
// is a no-op. Close does not render the cache unusable, but it is meant
// as the last call before process exit.
func (c *Cache) Close() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.spillEnabled() {
		return nil
	}
	// Demote LRU-first: each demotion pushes to the disk tier's front, so
	// the resident recency order is preserved on top of what had already
	// been demoted.
	for fp, e, ok := c.res.Oldest(); ok; fp, e, ok = c.res.Oldest() {
		c.res.Remove(fp)
		//lint:allow lockcheck Close persists the whole resident tier under c.mu: shutdown demotion must not race concurrent probes (see spill.go)
		if !c.demoteLocked(e) {
			c.dropLocked(e) // cannot persist — drop rather than leak
		}
	}
	return c.writeManifestLocked()
}

// manifest is the on-disk index of the spill directory. Entries are
// ordered most recently used first.
type manifest struct {
	Epoch   uint64          `json:"epoch"`
	Entries []manifestEntry `json:"entries"`
}

type manifestEntry struct {
	Fingerprint string        `json:"fingerprint"`
	Session     string        `json:"session,omitempty"`
	File        string        `json:"file"`
	Bytes       int64         `json:"bytes"`
	CostNs      int64         `json:"cost_ns"`
	Schema      []manifestCol `json:"schema"`
	Sub         *manifestSub  `json:"sub,omitempty"`
}

type manifestCol struct {
	Table string `json:"table,omitempty"`
	Name  string `json:"name"`
	Kind  int    `json:"kind"`
}

// manifestSub carries the subsumption summary minus the re-filter
// closure (not serializable). A warmed entry keeps answering semantic
// probes — Subsumes uses only the key and intervals, and the narrow
// query re-filters with its own expression.
type manifestSub struct {
	Key       string                   `json:"key"`
	Intervals map[string]plan.Interval `json:"intervals"`
}

func (c *Cache) writeManifestLocked() error {
	m := manifest{Epoch: c.epoch}
	c.disk.All(func(_ plan.Fingerprint, e *entry) {
		me := manifestEntry{
			Fingerprint: e.fp.String(),
			Session:     e.session,
			File:        filepath.Base(e.path),
			Bytes:       e.bytes,
			CostNs:      int64(e.cost),
		}
		for _, ci := range e.schema {
			me.Schema = append(me.Schema, manifestCol{Table: ci.Table, Name: ci.Name, Kind: int(ci.Kind)})
		}
		if e.sub != nil && !e.sub.Key.IsZero() {
			ms := &manifestSub{Key: e.sub.Key.String(), Intervals: e.sub.Intervals}
			// Interval bounds hold vector.Values; a non-finite double
			// cannot be marshaled — drop the summary, keep the entry.
			if _, err := json.Marshal(ms); err == nil {
				me.Sub = ms
			}
		}
		m.Entries = append(m.Entries, me)
	})
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(c.cfg.SpillDir, "manifest.tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(c.cfg.SpillDir, "manifest.json"))
}

// loadManifest warms the disk tier from a previous process's manifest.
// Every failure mode — missing or corrupt manifest, missing files, bad
// fingerprints or schemas — skips quietly: the worst restart outcome is
// a cold cache. Spill files the manifest does not reference are removed.
func (c *Cache) loadManifest() {
	data, err := os.ReadFile(filepath.Join(c.cfg.SpillDir, "manifest.json"))
	if err != nil {
		c.sweepSpillDir(nil)
		return
	}
	var m manifest
	if json.Unmarshal(data, &m) != nil {
		c.sweepSpillDir(nil)
		return
	}
	c.epoch = m.Epoch
	referenced := make(map[string]bool)
	for _, me := range m.Entries {
		fpB, err := hex.DecodeString(me.Fingerprint)
		if err != nil || len(fpB) != len(plan.Fingerprint{}) || me.Bytes < 0 || me.Bytes > math.MaxInt64-c.disk.Cost() {
			continue
		}
		var f plan.Fingerprint
		copy(f[:], fpB)
		if _, dup := c.disk.Peek(f); dup {
			continue
		}
		name := filepath.Base(me.File)
		if ok, _ := filepath.Match(spillPattern, name); !ok {
			continue
		}
		// Another fingerprint's file would be overwritten when that
		// fingerprint is demoted, and this entry would then serve its
		// rows. (Older builds' random names are shorter.)
		if own := spillName(f); len(name) == len(own) && name != own {
			continue
		}
		path := filepath.Join(c.cfg.SpillDir, name)
		if fi, err := os.Stat(path); err != nil || fi.IsDir() {
			continue
		}
		schema := make([]plan.ColInfo, 0, len(me.Schema))
		ok := true
		for _, mc := range me.Schema {
			k := vector.Kind(mc.Kind)
			if k <= vector.KindInvalid || k > vector.KindTime {
				ok = false
				break
			}
			schema = append(schema, plan.ColInfo{Table: mc.Table, Name: mc.Name, Kind: k})
		}
		if !ok {
			continue
		}
		e := &entry{
			fp: f, session: me.Session, bytes: me.Bytes,
			cost: time.Duration(me.CostNs), path: path, schema: schema,
		}
		if me.Sub != nil {
			if kb, err := hex.DecodeString(me.Sub.Key); err == nil && len(kb) == len(plan.SubsumptionKey{}) {
				var key plan.SubsumptionKey
				copy(key[:], kb)
				e.sub = &plan.SubsumptionInfo{Key: key, Intervals: me.Sub.Intervals}
			}
		}
		c.disk.PutOldest(f, e, e.bytes) // manifest order is MRU-first
		c.indexLocked(e)
		referenced[name] = true
		c.warmed++
	}
	c.sweepSpillDir(referenced)
	c.evictDiskLocked()
}

// sweepSpillDir removes result spill files not referenced by the loaded
// manifest (leftovers of a crash between demotion and manifest write).
// Only files matching this package's naming pattern are touched.
func (c *Cache) sweepSpillDir(keep map[string]bool) {
	ents, err := os.ReadDir(c.cfg.SpillDir)
	if err != nil {
		return
	}
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() || keep[name] {
			continue
		}
		if ok, _ := filepath.Match(spillPattern, name); ok {
			os.Remove(filepath.Join(c.cfg.SpillDir, name))
		}
	}
}
