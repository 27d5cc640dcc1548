// Package mountsvc is the engine-owned mount service: the shared,
// streaming implementation of ALi's second stage. Before it existed the
// extract/decompress/transform path lived inside per-operator code, so N
// concurrent queries needing the same file paid N full extractions and
// every mount materialized the whole file before chunking. The service
// inverts that ownership — the data path is engine-global and queries
// attach cursors to it:
//
//   - Single-flight mounting: concurrent requests for the same (uri,
//     span) coalesce onto one extraction ("flight") whose record batches
//     are fanned out to every waiter and, per cache policy, streamed
//     into the ingestion cache. Joining is span-containment aware: a
//     request may ride any in-progress flight whose extraction span
//     covers its own.
//   - Streaming extraction: flights drive the adapter's MountStream
//     API, so batches reach waiters (and the operator tree above them)
//     while the file is still being decoded.
//   - Admission budget: a cross-query gate (internal/admission) bounds
//     the total bytes of repository files being extracted at once;
//     requests beyond the budget wait in a FIFO ticket queue — handoff
//     wakeups, so a stream of small requests can never starve a large
//     waiter — backpressuring the mount scheduler instead of OOMing.
//     Waits are cancellable (Request.Ctx) and counted per session
//     (Request.Session).
//   - Cancel-aware flights: a flight refcounts its live cursors; when
//     every waiter has closed or drained, an extraction still running is
//     stopped at the next batch boundary, its budget released and any
//     pending cache fill aborted — a fully abandoned query stops paying
//     for data nobody will read.
//
// Batches fanned out by cursors are copy-on-write shares of the
// flight's replay buffer (vector.Batch.Share): waiters may mutate what
// they receive and the first write materializes a private copy, so no
// waiter can ever corrupt another's view.
package mountsvc

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/admission"
	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/vector"
)

// Config parameterizes a Service.
type Config struct {
	// RepoDir is the scientific file repository root; request URIs are
	// resolved against it.
	RepoDir string
	// Pool, when set, models the cost of reading repository files (cold
	// pages are charged to the disk model; hot repeats are free).
	Pool *storage.BufferPool
	// Cache is the ingestion cache the service fills under file-granular
	// retention. May be nil.
	Cache *cache.Manager
	// OnMount, when set, observes every extracted pre-filter batch
	// (record-aligned, so per-record summaries stay correct). It is
	// invoked from flight goroutines and must be safe for concurrent use.
	OnMount func(uri string, batch *vector.Batch)
	// BudgetBytes bounds the total repository-file bytes being extracted
	// at once across all queries; <= 0 means unlimited. A single file
	// larger than the budget is admitted alone.
	BudgetBytes int64
	// SpillDir, together with SpillThresholdBytes > 0, enables
	// out-of-core replay buffers: once a flight's resident replay buffer
	// exceeds the threshold, its batches are flushed to a temp spill
	// file under SpillDir (removed at flight teardown on every path),
	// admission bytes are given back as batches land on disk, and
	// cursors replay the flushed prefix through streaming spill reads —
	// so a mount larger than the whole budget completes within it.
	SpillDir string
	// SpillThresholdBytes is the resident replay-buffer size (decoded
	// vector.Batch.Bytes) above which a flight spills; <= 0 disables
	// spilling even when SpillDir is set.
	SpillThresholdBytes int64
}

// Delta attributes one request's outcome to the requesting query's
// mount statistics. Exactly one of the booleans is set.
type Delta struct {
	// FileMounted marks the request that led a real extraction, with the
	// flight's totals.
	FileMounted    bool
	BytesRead      int64
	RecordsPruned  int
	RecordsMounted int
	// AdmissionSaved is how many budget bytes the planner's estimate
	// left free compared to whole-file admission (file size minus the
	// bytes actually admitted); only set with FileMounted.
	AdmissionSaved int64
	// SingleFlight marks a request served by joining another request's
	// in-progress flight.
	SingleFlight bool
	// FromCache marks a request short-circuited by a cache entry that
	// already covered its span.
	FromCache bool
}

// Request describes one query's need for a mounted file.
type Request struct {
	// URI names the repository file.
	URI string
	// Ctx, when set, cancels THIS request's cursor: a query cancelled
	// while its mount is blocked (on the byte budget, or mid-stream)
	// returns promptly through Cursor.Next and detaches, holding
	// nothing. The flight itself is untouched while other waiters ride
	// it — its admission wait and extraction are cancelled only when
	// every waiter has detached (abandonment), never by one waiter's
	// context, so one cancelled query can never fail the queries that
	// joined its flight.
	Ctx context.Context
	// Session identifies the requesting session in the admission gate's
	// per-session statistics; empty is a valid (shared) identity.
	Session string
	// Adapter extracts the file's format.
	Adapter catalog.FormatAdapter
	// Span is the restriction the caller's predicate places on the data
	// span column: records entirely outside it may be pruned without
	// decoding. FullSpan means the whole file is needed.
	Span cache.Span
	// BatchRows caps rows per yielded batch (record-aligned; see
	// catalog.FormatAdapter.MountStream). <= 0 selects the default.
	BatchRows int
	// EstBytes, when in (0, file size), is the planner's estimate of the
	// bytes this mount will actually buffer (span-surviving records
	// only): admission charges it instead of the whole-file worst case,
	// admitting more true parallelism under the same budget. 0 means
	// unknown. Ignored under file-granular caching, where the whole file
	// is extracted regardless.
	EstBytes int64
	// Observe, when set, receives the request's statistics attribution.
	// It may fire from a flight goroutine.
	Observe func(Delta)
}

// Cursor yields the record batches of one mounted file, in file order.
// Next returns nil at end of stream. Batches are copy-on-write shares of
// storage common to every waiter of the same flight: reading is free and
// a consumer mutating its batch (through the vector mutation API)
// materializes a private copy without affecting anyone else.
type Cursor interface {
	Next() (*vector.Batch, error)
	Close() error
}

// Stats is a snapshot of service-wide counters.
type Stats struct {
	// FlightsStarted counts real extractions.
	FlightsStarted int64
	// SingleFlightHits counts requests that joined an in-progress flight.
	SingleFlightHits int64
	// CacheServes counts requests short-circuited by the ingestion cache.
	CacheServes int64
	// FlightsCancelled counts extractions stopped mid-file because every
	// waiter had abandoned the flight.
	FlightsCancelled int64
	// InFlightBytes / PeakInFlightBytes track the admission budget
	// (denominated in repository-file bytes, the pre-extraction
	// admission estimate).
	InFlightBytes     int64
	PeakInFlightBytes int64
	// ReplayBytes / PeakReplayBytes track the decoded replay buffers of
	// live flights, measured with vector.Batch.Bytes rather than any
	// ad-hoc estimate. The peak is the true high-water mark, updated at
	// every buffer append — spilling drains the gauge mid-flight, so a
	// completion-time sample would under-report the pressure that
	// triggered the spill.
	ReplayBytes     int64
	PeakReplayBytes int64
	// Out-of-core counters: SpilledFlights counts flights that spilled
	// their replay buffer to disk, SpilledBytes the decoded bytes
	// flushed (the memory the spill released), SpillReplayReads the
	// batches cursors replayed from spill files instead of memory.
	SpilledFlights   int64
	SpilledBytes     int64
	SpillReplayReads int64
	// SpillFailures counts flights that fell back to holding their replay
	// buffer in memory because creating or writing the spill file failed.
	SpillFailures int64
	// AdmissionBytesSaved totals the budget bytes honest (estimate-
	// sized) admissions left free versus whole-file admission.
	AdmissionBytesSaved int64
	// QueueDepth is the number of flights currently blocked in the
	// admission queue; BudgetWaits counts admissions that had to queue;
	// BudgetCancelled counts admission waits cancelled because every
	// waiter had detached (including a sole cancelled waiter);
	// WaiterCancels counts cursors detached by their own request's
	// context; StarvationAvoided counts the fairness interventions of
	// the FIFO gate (see admission.Stats.StarvationAvoided).
	QueueDepth        int
	BudgetWaits       int64
	BudgetCancelled   int64
	WaiterCancels     int64
	StarvationAvoided int64
	// PerSession breaks the admission gate down by session identity:
	// held/peak bytes, acquires, waits and wait times, cancellations.
	PerSession map[string]admission.SessionStats
}

// Service is the shared mount service. It is safe for concurrent use by
// any number of queries.
type Service struct {
	cfg Config

	// gate is the shared FIFO admission gate bounding in-flight
	// extraction bytes across all queries and sessions.
	gate *admission.Gate

	// replay-buffer and spill accounting
	rmu            sync.Mutex
	replay         int64
	replayPeak     int64
	spilledFlights int64
	spilledBytes   int64
	spillReads     int64
	spillFailures  int64

	// single-flight table
	fmu            sync.Mutex
	flights        map[string][]*flight
	started        int64
	joined         int64
	cached         int64
	cancelled      int64
	waiterCancels  int64
	admissionSaved int64
}

// errFlightAbandoned is the internal sentinel the flight goroutine
// returns through the adapter's emit callback to stop an extraction
// whose every waiter has detached.
var errFlightAbandoned = errors.New("mountsvc: flight abandoned by all waiters")

// New returns a service over the given configuration.
func New(cfg Config) *Service {
	return &Service{
		cfg:     cfg,
		flights: make(map[string][]*flight),
		gate:    admission.New(admission.Config{BudgetBytes: cfg.BudgetBytes}),
	}
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	s.fmu.Lock()
	st := Stats{
		FlightsStarted: s.started, SingleFlightHits: s.joined,
		CacheServes: s.cached, FlightsCancelled: s.cancelled,
		WaiterCancels: s.waiterCancels, AdmissionBytesSaved: s.admissionSaved,
	}
	s.fmu.Unlock()
	gs := s.gate.Stats()
	st.InFlightBytes, st.PeakInFlightBytes = gs.UsedBytes, gs.PeakBytes
	st.QueueDepth, st.BudgetWaits = gs.QueueDepth, gs.Waits
	st.BudgetCancelled, st.StarvationAvoided = gs.Cancelled, gs.StarvationAvoided
	st.PerSession = gs.PerSession
	s.rmu.Lock()
	st.ReplayBytes, st.PeakReplayBytes = s.replay, s.replayPeak
	st.SpilledFlights, st.SpilledBytes = s.spilledFlights, s.spilledBytes
	st.SpillReplayReads, st.SpillFailures = s.spillReads, s.spillFailures
	s.rmu.Unlock()
	return st
}

// spillEnabled reports whether flights may spill their replay buffers.
func (s *Service) spillEnabled() bool {
	return s.cfg.SpillDir != "" && s.cfg.SpillThresholdBytes > 0
}

// diskModel returns the modeled disk spill I/O is charged to: the
// buffer pool's when one is configured, a free disk otherwise.
func (s *Service) diskModel() (storage.DiskModel, *storage.Clock) {
	if s.cfg.Pool != nil {
		return s.cfg.Pool.Model(), s.cfg.Pool.Clock()
	}
	return storage.NoCost(), nil
}

// Gate exposes the admission gate (benchmarks sample per-session waits).
func (s *Service) Gate() *admission.Gate { return s.gate }

// fileGranular reports whether the cache retains whole files, in which
// case flights must extract (and cache) the full file regardless of the
// requested span.
func (s *Service) fileGranular() bool {
	return s.cfg.Cache != nil &&
		s.cfg.Cache.Config().Policy != cache.NeverCache &&
		s.cfg.Cache.Config().Granularity == cache.FileGranular
}

// Mount resolves a request to a batch cursor: joining an in-progress
// flight when one covers the span, serving straight from a covering
// cache entry, or starting a new extraction flight.
func (s *Service) Mount(req Request) (Cursor, error) {
	path := filepath.Join(s.cfg.RepoDir, req.URI)
	st, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("mountsvc: mount %s: %w", req.URI, err)
	}
	span := req.Span
	if s.fileGranular() {
		// Whole-file retention: pruning would cache an incomplete entry.
		span = cache.FullSpan()
	}

	s.fmu.Lock()
	for _, f := range s.flights[req.URI] {
		if f.span.Contains(span) {
			// ref before releasing fmu: cancellation checks refs under
			// both locks, so a flight visible in the table can never be
			// abandoned between the containment check and the attach.
			f.ref()
			s.joined++
			s.fmu.Unlock()
			if req.Observe != nil {
				req.Observe(Delta{SingleFlight: true})
			}
			return &flightCursor{f: f, ctx: req.Ctx}, nil
		}
	}
	// Planning races: rule (1) may have chosen Mount while the cache was
	// still empty; by execution time a completed flight may have filled
	// it. Only file-granular entries are safe to serve here (they hold
	// the whole file; tuple-granular entries hold another query's
	// filtered rows and stay the planner's business).
	if s.fileGranular() {
		if b, ok := s.cfg.Cache.Get(req.URI, span); ok {
			s.cached++
			s.fmu.Unlock()
			if req.Observe != nil {
				req.Observe(Delta{FromCache: true})
			}
			return newStaticCursor(b, req.batchRows()), nil
		}
	}
	f := newFlight(req.URI, span, st.Size(), req.Session, s)
	// Honest admission: when the planner proved (from the frozen Qf
	// result) that span pruning leaves only part of the file to buffer,
	// admit that estimate instead of the whole-file worst case. Skipped
	// under file-granular caching, where the full file is extracted.
	if req.EstBytes > 0 && req.EstBytes < st.Size() && !s.fileGranular() {
		f.admitBytes = req.EstBytes
	}
	s.flights[req.URI] = append(s.flights[req.URI], f)
	s.started++
	f.ref()
	s.fmu.Unlock()

	go s.run(f, req, path, st.Size())
	return &flightCursor{f: f, ctx: req.Ctx}, nil
}

func (r Request) batchRows() int {
	if r.BatchRows > 0 {
		return r.BatchRows
	}
	return vector.DefaultBatchSize
}

// run is the flight goroutine: admission, modeled I/O, streaming
// extraction, fan-out and cache fill. The budget stays held until the
// extraction is done AND every cursor has drained or closed — the
// replay buffer, not just the decode, is what the budget bounds (see
// flight.unref).
func (s *Service) run(f *flight, req Request, path string, size int64) {
	finish := func(err error) {
		s.fmu.Lock()
		s.removeLocked(f)
		s.fmu.Unlock()
		// Extraction-done must be visible before done is: a cursor that
		// observes done and detaches must synchronously release the
		// budget when it was the last reference.
		f.extractionFinished()
		f.finish(err)
	}

	if err := s.admit(f); err != nil {
		// Nothing was ever held: the abandoned flight leaves the gate
		// without touching the budget (a cursor racing the abandonment
		// sees the error).
		finish(fmt.Errorf("mountsvc: mount %s: admission: %w", f.uri, err))
		return
	}

	// Model the cost of reading the external file by touching its pages
	// in the buffer pool: a cold mount pays seek+transfer, a hot repeat
	// is free (the paper's hot protocol has the file in the OS page
	// cache). Touch reads no bytes; the adapter below reads the file
	// once. Single-flight means concurrent queries pay it once.
	if s.cfg.Pool != nil {
		s.cfg.Pool.Touch(path, size)
	}

	// Record pruning from the flight span (disabled for full-span
	// flights, including all flights under file-granular caching).
	pruned := 0
	var keep func(catalog.RecordMeta) bool
	if !f.span.Full {
		lo, hi := f.span.Lo, f.span.Hi
		keep = func(rm catalog.RecordMeta) bool {
			rlo, rhi, known := req.Adapter.RecordSpan(rm)
			if !known {
				return true
			}
			if rhi < lo || rlo > hi {
				pruned++
				return false
			}
			return true
		}
	}

	// File-granular retention streams into the cache as batches arrive;
	// the reservation keeps a concurrent Put from double-inserting.
	var pending *cache.Pending
	if s.fileGranular() {
		pending = s.cfg.Cache.BeginPut(f.uri)
	}

	rows := 0
	err := req.Adapter.MountStream(path, f.uri, keep, req.batchRows(), func(b *vector.Batch) error {
		if s.abandonIfUnreferenced(f) {
			return errFlightAbandoned
		}
		if s.cfg.OnMount != nil {
			s.cfg.OnMount(f.uri, b)
		}
		pending.Append(b)
		rows += b.Len()
		f.append(b)
		return nil
	})
	if errors.Is(err, errFlightAbandoned) {
		// Nobody is left to read (abandonIfUnreferenced removed the
		// flight from the table, so nobody new can join either): drop the
		// partial cache fill and release the budget.
		pending.Abort()
		finish(nil)
		return
	}
	if err != nil {
		pending.Abort()
		finish(err)
		return
	}
	pending.Commit(cache.FullSpan())
	saved := size - f.admitBytes
	if saved > 0 {
		s.fmu.Lock()
		s.admissionSaved += saved
		s.fmu.Unlock()
	}
	if req.Observe != nil {
		req.Observe(Delta{
			FileMounted:    true,
			BytesRead:      size,
			RecordsPruned:  pruned,
			RecordsMounted: rows,
			AdmissionSaved: saved,
		})
	}
	finish(nil)
}

// admit blocks in the admission gate until the flight's bytes fit the
// budget (FIFO order) or every waiter abandons the flight.
// Deliberately NOT cancelled by any single request's context:
// a flight is shared, and failing it on one waiter's cancellation would
// poison the queries riding it — cancelled waiters leave through their
// own cursors instead, and only the last one's departure (abandonment)
// ends the wait. On success the flight is marked admitted, which is
// what licenses the (single) release.
func (s *Service) admit(f *flight) error {
	actx, cancel := context.WithCancel(context.Background()) //lint:allow ctxcheck the flight's wait is deliberately detached from any one waiter's ctx; abandonment (below) is its only cancellation
	defer cancel()
	go func() {
		// A flight whose every waiter detached while it was still queued
		// must not sit in the gate forever: abandonment cancels the wait.
		select {
		case <-f.abandonCh:
			cancel()
		case <-actx.Done():
		}
	}()
	if err := s.gate.Acquire(actx, f.session, f.admitBytes); err != nil { //lint:allow releasecheck the flight record owns this admission; spill flushes and releaseFlight give it back exactly once in total, gated by f.released
		return err
	}
	f.mu.Lock()
	f.admitted = true
	f.admitHeld = f.admitBytes
	f.mu.Unlock()
	return nil
}

// releaseFlight gives back a finished flight's admission bytes (0 when
// the flight was never admitted) and retires its replay-buffer
// accounting. The flight's released flag guarantees this runs at most
// once per flight; the gate panics on a double release rather than
// silently over-admitting.
func (s *Service) releaseFlight(session string, admitted, buffered int64) {
	if admitted > 0 {
		s.gate.Release(session, admitted)
	}
	s.rmu.Lock()
	s.replay -= buffered
	s.rmu.Unlock()
}

// addReplay charges one appended batch to the replay-buffer gauge. The
// peak is sampled here, at every append — before any spill flush drains
// the gauge — so it is the true high-water mark of resident replay
// memory, not a completion-time reading.
func (s *Service) addReplay(n int64) {
	s.rmu.Lock()
	s.replay += n
	if s.replay > s.replayPeak {
		s.replayPeak = s.replay
	}
	s.rmu.Unlock()
}

// noteSpill retires flushed bytes from the replay gauge and counts them
// as spilled; first marks the flight's first successful flush.
func (s *Service) noteSpill(first bool, n int64) {
	if n == 0 && !first {
		return
	}
	s.rmu.Lock()
	if first {
		s.spilledFlights++
	}
	s.spilledBytes += n
	s.replay -= n
	s.rmu.Unlock()
}

// noteSpillFailure counts a flight that stopped spilling for good.
func (s *Service) noteSpillFailure() {
	s.rmu.Lock()
	s.spillFailures++
	s.rmu.Unlock()
}

// noteSpillRead counts one batch replayed from a spill file.
func (s *Service) noteSpillRead() {
	s.rmu.Lock()
	s.spillReads++
	s.rmu.Unlock()
}

// abandonIfUnreferenced cancels a flight whose every cursor has detached:
// it is removed from the single-flight table (so no later request can
// join a dying extraction), its pending admission wait is cancelled, and
// the caller (the emit callback) stops the adapter stream. The refs
// check happens under both locks, mirroring the join path, so a request
// that found the flight in the table has always ref'd it before this can
// observe zero. Both the emit callback and the last unref may race here;
// the abandonMarked flag keeps the cancellation count and the admission
// cancel single-shot.
func (s *Service) abandonIfUnreferenced(f *flight) bool {
	s.fmu.Lock()
	f.mu.Lock()
	if f.refs > 0 || f.done || f.extracted {
		f.mu.Unlock()
		s.fmu.Unlock()
		return false
	}
	first := !f.abandonMarked
	f.abandonMarked = true
	f.mu.Unlock()
	s.removeLocked(f)
	if first {
		s.cancelled++
	}
	s.fmu.Unlock()
	if first {
		close(f.abandonCh)
	}
	return true
}

// removeLocked drops a flight from the single-flight table; callers hold
// fmu. Removing an already-removed flight is a no-op.
func (s *Service) removeLocked(f *flight) {
	fs := s.flights[f.uri]
	for i, other := range fs {
		if other == f {
			s.flights[f.uri] = append(fs[:i], fs[i+1:]...)
			break
		}
	}
	if len(s.flights[f.uri]) == 0 {
		delete(s.flights, f.uri)
	}
}

// flight is one in-progress extraction with replay: batches accumulate
// so waiters joining mid-flight still see the file from the beginning.
// Its budget bytes are held until the extraction is done AND the last
// cursor has drained or closed — the replay buffer is resident memory,
// so releasing at decode-end alone would let K queries over K distinct
// files keep K whole decoded files live with the budget showing zero.
type flight struct {
	uri  string
	span cache.Span
	size int64
	// admitBytes is what the admission gate is charged for this flight:
	// the file size by default, or the planner's smaller honest
	// estimate. Set before the flight goroutine starts, immutable after.
	admitBytes int64
	session    string // admission identity of the request that led the flight
	svc        *Service

	// abandonCh is closed (once, by abandonIfUnreferenced) when every
	// waiter has detached, cancelling a still-pending admission wait.
	abandonCh chan struct{}

	mu            sync.Mutex
	cond          *sync.Cond
	batches       []*vector.Batch // resident replay tail: global indices [spilled, spilled+len)
	buffered      int64           // resident replay-buffer bytes (vector.Batch.Bytes)
	done          bool
	err           error
	refs          int   // attached cursors still replaying
	extracted     bool  // the flight goroutine is finished
	admitted      bool  // the gate granted the flight's bytes
	admitHeld     int64 // admission bytes still held (spilling gives some back early)
	released      bool  // budget bytes given back
	abandonMarked bool  // counted as cancelled; abandonCh closed

	// Out-of-core state. Batches with global index < spilled live only
	// in the spill file; spilled grows monotonically and only the flight
	// goroutine writes the file, so a cursor that saw index i < spilled
	// under mu may read frame i outside it.
	spill       *storage.SpillFile
	spillW      *storage.BatchWriter
	spilled     int  // batch frames durable in the spill file
	spillFailed bool // a spill write failed: stay in-memory for good
}

func newFlight(uri string, span cache.Span, size int64, session string, svc *Service) *flight {
	f := &flight{uri: uri, span: span, size: size, admitBytes: size,
		session: session, svc: svc, abandonCh: make(chan struct{})}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// ref attaches one cursor to the flight's replay buffer.
func (f *flight) ref() {
	f.mu.Lock()
	f.refs++
	f.mu.Unlock()
}

// unref detaches a cursor (it drained to the end, errored, or closed);
// the last detach after extraction releases the budget. When the last
// detach happens before extraction finished — all waiters walked away —
// the flight is abandoned, which also unblocks an admission wait still
// queued in the gate.
func (f *flight) unref() {
	f.mu.Lock()
	f.refs--
	abandon := f.refs <= 0 && !f.done && !f.extracted
	f.maybeReleaseLocked()
	f.mu.Unlock()
	if abandon {
		f.svc.abandonIfUnreferenced(f)
	}
}

// extractionFinished marks the flight goroutine done for budget
// purposes (called whether extraction succeeded or failed).
func (f *flight) extractionFinished() {
	f.mu.Lock()
	f.extracted = true
	f.maybeReleaseLocked()
	f.mu.Unlock()
}

// maybeReleaseLocked returns the flight's bytes exactly once: the
// released flag is the single-shot guard shared by every path that can
// end a flight (normal drain, error, cancellation mid-extraction, and
// an admission wait that never held anything — admitted stays false and
// zero budget bytes are released).
func (f *flight) maybeReleaseLocked() {
	if f.extracted && f.refs <= 0 && !f.released {
		f.released = true
		held := int64(0)
		if f.admitted {
			held = f.admitHeld
		}
		f.svc.releaseFlight(f.session, held, f.buffered)
		if f.spill != nil {
			// Temp spill files never outlive their flight: normal drain,
			// error and abandonment all come through here exactly once.
			f.spill.Remove()
			f.spill, f.spillW = nil, nil
		}
	}
}

// append stores one extracted batch in the replay buffer, charging its
// decoded size to the service's replay gauge. The flight keeps its own
// handle; cursors take copy-on-write shares of it on the way out.
func (f *flight) append(b *vector.Batch) {
	if b == nil || b.Len() == 0 {
		return
	}
	n := b.Bytes()
	f.mu.Lock()
	f.batches = append(f.batches, b)
	f.buffered += n
	f.mu.Unlock()
	f.svc.addReplay(n)
	f.cond.Broadcast()
	f.maybeSpill()
}

// maybeSpill flushes the resident replay buffer to the flight's spill
// file once it exceeds the configured threshold. Only the flight
// goroutine calls this (from append, between adapter emits), so it is
// the sole writer of the spill file and the sole mutator of batches —
// it may read the slice it last published without holding mu. Flushed
// batches leave the replay gauge and give back a matching share of the
// flight's admission bytes: data on disk no longer occupies the
// memory budget, which is what lets a file bigger than the whole
// budget stream through it.
func (f *flight) maybeSpill() {
	svc := f.svc
	if !svc.spillEnabled() {
		return
	}
	f.mu.Lock()
	over := f.buffered > svc.cfg.SpillThresholdBytes && !f.spillFailed
	toFlush := f.batches
	f.mu.Unlock()
	if !over || len(toFlush) == 0 {
		return
	}
	first := f.spillW == nil
	if first {
		sf, err := storage.CreateSpillFile(svc.cfg.SpillDir, "flight-*.spill")
		if err != nil {
			// Out-of-core unavailable (dir gone, disk full): degrade to
			// the in-memory behaviour rather than failing the flight.
			f.mu.Lock()
			f.spillFailed = true
			f.mu.Unlock()
			svc.noteSpillFailure()
			return
		}
		kinds := make([]vector.Kind, toFlush[0].NumCols())
		for i, c := range toFlush[0].Cols {
			kinds[i] = c.Kind()
		}
		model, clock := svc.diskModel()
		w := storage.NewBatchWriter(sf.File(), kinds, model, clock)
		f.mu.Lock()
		f.spill, f.spillW = sf, w
		f.mu.Unlock()
	}
	var flushed int64
	for i, b := range toFlush {
		if err := f.spillW.Append(b); err != nil {
			// A torn tail may be in the file; spilled was never advanced
			// past it, so no cursor will read it. Keep everything resident
			// from here on.
			f.mu.Lock()
			f.spillFailed = true
			f.spilled += i
			f.batches = f.batches[i:]
			f.buffered -= flushed
			f.mu.Unlock()
			svc.noteSpillFailure()
			svc.noteSpill(first && i > 0, flushed)
			return
		}
		flushed += b.Bytes()
	}
	f.mu.Lock()
	f.spilled += len(toFlush)
	f.batches = f.batches[len(toFlush):]
	f.buffered -= flushed
	rel := int64(0)
	if f.admitted {
		rel = f.admitHeld
		if rel > flushed {
			rel = flushed
		}
		f.admitHeld -= rel
	}
	f.mu.Unlock()
	if rel > 0 {
		svc.gate.Release(f.session, rel)
	}
	svc.noteSpill(first, flushed)
}

func (f *flight) finish(err error) {
	f.mu.Lock()
	f.done = true
	f.err = err
	f.mu.Unlock()
	f.cond.Broadcast()
}

// flightCursor is one waiter's position in a flight. Closing a cursor
// detaches the waiter without affecting the flight or other waiters —
// an aborting query never starves the rest. A cursor detaches (for
// budget accounting) as soon as it reaches end of stream, not only at
// Close: a sequential union closes its inputs at query end, and holding
// the budget that long would deadlock later mounts of the same query.
//
// Cancellation is per-cursor: when the waiter's request context dies,
// Next returns its error promptly — even while blocked behind a flight
// that is itself queued on the admission budget — and the waiter
// detaches exactly like a Close. The flight is unaffected unless this
// was its last waiter (abandonment).
type flightCursor struct {
	f        *flight
	ctx      context.Context // may be nil: uncancellable
	stop     func() bool     // releases the ctx watcher
	i        int
	detached bool

	// Spill replay state: r reads the flight's spill file sequentially;
	// rpos is the next frame it will decode. Frames this cursor already
	// consumed from memory before they were flushed are decoded and
	// discarded on the way past (their dictionary deltas are needed).
	r    *storage.BatchReader
	rpos int
}

// Next implements Cursor.
func (c *flightCursor) Next() (*vector.Batch, error) {
	if c.detached {
		return nil, nil
	}
	f := c.f
	if c.ctx != nil && c.stop == nil {
		// Wake this waiter out of the replay wait when its context dies.
		// Broadcast under f.mu so the wakeup can never slip between a
		// waiter's ctx check and its cond.Wait.
		c.stop = context.AfterFunc(c.ctx, func() {
			f.mu.Lock()
			f.cond.Broadcast()
			f.mu.Unlock()
		})
	}
	f.mu.Lock()
	for {
		if c.ctx != nil {
			if err := c.ctx.Err(); err != nil {
				f.mu.Unlock()
				c.detach()
				c.f.svc.noteWaiterCancel()
				return nil, err
			}
		}
		if c.i < f.spilled {
			// The batch lives only in the spill file now. Frames below
			// spilled are durable and the file outlives every ref'd
			// cursor, so the read happens outside mu.
			path := f.spill.Path()
			f.mu.Unlock()
			b, err := c.nextSpilled(path)
			if err != nil {
				c.detach()
				return nil, err
			}
			c.f.svc.noteSpillRead()
			return b, nil
		}
		if idx := c.i - f.spilled; idx < len(f.batches) {
			// Fan out a copy-on-write share: every waiter gets its own
			// handle over the replay buffer's storage in O(1).
			b := f.batches[idx].Share()
			c.i++
			f.mu.Unlock()
			return b, nil
		}
		if f.done {
			err := f.err
			f.mu.Unlock()
			c.detach()
			return nil, err
		}
		f.cond.Wait()
	}
}

// nextSpilled advances the cursor's spill reader to frame c.i and
// returns that batch (exclusively owned: decoded fresh from disk, no
// share bookkeeping needed).
func (c *flightCursor) nextSpilled(path string) (*vector.Batch, error) {
	if c.r == nil {
		model, clock := c.f.svc.diskModel()
		r, err := storage.OpenBatchReader(path, model, clock)
		if err != nil {
			return nil, err
		}
		c.r = r
	}
	var b *vector.Batch
	for c.rpos <= c.i {
		var err error
		b, err = c.r.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, fmt.Errorf("%w: spill file ended before frame %d", storage.ErrCorruptSpill, c.i)
		}
		c.rpos++
	}
	c.i++
	return b, nil
}

// detach ends the cursor's attachment exactly once and releases its
// context watcher and spill reader.
func (c *flightCursor) detach() {
	if c.detached {
		return
	}
	c.detached = true
	if c.stop != nil {
		c.stop()
		c.stop = nil
	}
	if c.r != nil {
		c.r.Close()
		c.r = nil
	}
	c.f.unref()
}

// Close implements Cursor.
func (c *flightCursor) Close() error {
	c.detach()
	return nil
}

// noteWaiterCancel counts one cursor detached by its own context.
func (s *Service) noteWaiterCancel() {
	s.fmu.Lock()
	s.waiterCancels++
	s.fmu.Unlock()
}

// staticCursor chunks an already resident batch (a cache entry share).
// Chunks are copy-on-write slices aliasing the entry's storage: reads
// are free, and a consumer writing to a chunk materializes a private
// copy without touching the entry.
type staticCursor struct {
	b    *vector.Batch
	pos  int
	size int
}

func newStaticCursor(b *vector.Batch, size int) *staticCursor {
	return &staticCursor{b: b, size: size}
}

// Next implements Cursor.
func (c *staticCursor) Next() (*vector.Batch, error) {
	if c.b == nil || c.pos >= c.b.Len() {
		return nil, nil
	}
	hi := c.pos + c.size
	if hi > c.b.Len() {
		hi = c.b.Len()
	}
	out := c.b.Slice(c.pos, hi)
	c.pos = hi
	return out, nil
}

// Close implements Cursor.
func (c *staticCursor) Close() error {
	c.b = nil
	return nil
}
