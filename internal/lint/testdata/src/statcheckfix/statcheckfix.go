// Package statcheckfix seeds statcheck violations: unguarded writes to
// fields of a mutex-guarded *Stats struct (including from goroutine
// bodies), snapshots that alias receiver state past the unlock, and
// declared-but-never-updated counters — plus the allowed patterns
// (writes under the lock, Locked-suffix helpers, sync/atomic,
// callback literals, private value copies, unguarded metadata types,
// and the //lint:allow escape hatch).
package statcheckfix

import (
	"sync"
	"sync/atomic"
)

type ServerStats struct {
	Hits     int64
	Misses   int64
	Sessions map[string]int64
}

type Server struct {
	mu    sync.Mutex
	stats ServerStats
}

func (s *Server) bump() {
	s.stats.Hits++ // want `write to ServerStats.Hits outside the owning lock \(hold the mutex or use sync/atomic\)`
}

func (s *Server) bumpGuarded() {
	s.mu.Lock()
	s.stats.Hits++
	s.mu.Unlock()
}

func (s *Server) bumpDeferred() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Hits++
}

// bumpLocked runs under the caller's lock by naming convention.
func (s *Server) bumpLocked() {
	s.stats.Hits++
}

func (s *Server) bumpAtomic() {
	atomic.AddInt64(&s.stats.Misses, 1)
}

func (s *Server) spawn(done chan struct{}) {
	go func() {
		s.stats.Hits++ // want `write to ServerStats.Hits outside the owning lock`
		close(done)
	}()
}

func (s *Server) spawnGuarded(done chan struct{}) {
	go func() {
		s.mu.Lock()
		s.stats.Hits++
		s.mu.Unlock()
		close(done)
	}()
}

// update passes the stats to a callback under the lock; literals at
// call sites inherit that contract and are waived.
func (s *Server) update(f func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f()
}

func (s *Server) bumpViaCallback() {
	s.update(func() { s.stats.Hits++ }) // clean: runs under update's lock
}

func (s *Server) bumpAllowed() {
	s.stats.Hits++ //lint:allow statcheck the fixture documents the escape hatch for a single-owner phase
}

// --- snapshots ---

func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats // want `stats snapshot returns receiver-aliased ServerStats, whose map/slice fields escape the lock; copy them instead`
}

func (s *Server) StatsAliased() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := ServerStats{Hits: s.stats.Hits, Misses: s.stats.Misses}
	out.Sessions = s.stats.Sessions // want `stats snapshot aliases receiver state \(map\[string\]int64 escapes the lock\); copy it instead`
	return out
}

func (s *Server) StatsCopy() ServerStats { // clean: per-entry copy
	s.mu.Lock()
	defer s.mu.Unlock()
	out := ServerStats{Hits: s.stats.Hits, Misses: s.stats.Misses}
	out.Sessions = make(map[string]int64, len(s.stats.Sessions))
	for k, v := range s.stats.Sessions {
		out.Sessions[k] = v
	}
	return out
}

// IdleStats is guarded (reachable from Idle's mutex-owning struct) but
// its counter is never updated anywhere in the package: dead weight in
// every snapshot.
type IdleStats struct {
	Polls int64 // want `counter IdleStats.Polls is declared but never updated`
}

type Idle struct {
	mu    sync.Mutex
	stats IdleStats
}

func (i *Idle) Stats() IdleStats {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.stats
}

// CopiedStats is guarded, and neither its snapshot's copy into a local
// nor the &c.stats its update helper passes writes a field: its counter
// is as dead as IdleStats.Polls.
type CopiedStats struct {
	Drops int64 // want `counter CopiedStats.Drops is declared but never updated`
}

type Copier struct {
	mu    sync.Mutex
	stats CopiedStats
}

func (c *Copier) Stats() CopiedStats {
	c.mu.Lock()
	st := c.stats
	c.mu.Unlock()
	return st
}

func (c *Copier) count(update func(*CopiedStats)) {
	c.mu.Lock()
	update(&c.stats)
	c.mu.Unlock()
}

// FreeStats is not reachable from any mutex-owning struct: a
// single-owner metadata type (the zone-map RecordStats shape), exempt
// from the guarded-write and dead-counter rules.
type FreeStats struct {
	Rows int64
}

func bumpFree(f *FreeStats) {
	f.Rows++
}
