// Package mountsvc is the engine-owned mount service: the shared,
// streaming implementation of ALi's second stage. The data path is
// engine-global and queries attach cursors to it:
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
//   - A window, not a history: a flight keeps only the batches some
//     cursor has yet to read; a batch leaves memory, and gives back its
//     share of admission, once every cursor is past it. A request that
//     joins after batch 0 left attaches at the window's head and
//     re-mounts the batches before it privately, so its stream is a
//     cold mount's. Past SpillThresholdBytes the extractor waits for the
//     slowest cursor, a joiner still on its prefix included: the prefix
//     needs nothing the flight holds, so a flight never touches disk.
//   - Admission budget: a cross-query gate (internal/admission) bounds
//     the admission flights hold. A flight is charged its file's bytes
//     when it starts and gives them back as its batches leave the window,
//     so the budget bounds extraction that has run ahead of its readers.
//     Requests beyond it wait in a FIFO ticket queue (handoff wakeups: a
//     stream of small requests never starves a large waiter), which
//     backpressures the mount scheduler; waits are cancellable
//     (Request.Ctx) and counted per session (Request.Session).
//   - Cancel-aware flights: a flight tracks its live cursors; when
//     every waiter has closed or drained, an extraction still running is
//     stopped at the next batch boundary, its budget released and any
//     pending cache fill aborted — a fully abandoned query stops paying
//     for data nobody will read.
//
// Batches fanned out by cursors are copy-on-write shares of the
// flight's window (vector.Batch.Share): waiters may mutate what they
// receive and the first write materializes a private copy, so no
// waiter can ever corrupt another's view.
package mountsvc

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"slices"
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
	// Cache is the ingestion cache; the service's flights are its one
	// writer, at either granularity. May be nil.
	Cache *cache.Manager
	// OnMount, when set, observes every extracted pre-filter batch
	// (record-aligned, so per-record summaries stay correct). It is
	// invoked from flight goroutines and must be safe for concurrent use.
	OnMount func(uri string, batch *vector.Batch)
	// BudgetBytes bounds the admission held across all queries; <= 0
	// means unlimited. A flight is charged its file's bytes (or the
	// planner's estimate) when it starts extracting, gives back as many
	// as the decoded bytes of each batch every cursor has read, and the
	// rest when it ends: it bounds batches some cursor has yet to read,
	// not files being extracted at once. A single file larger than the
	// budget is admitted alone.
	BudgetBytes int64
	// SpillThresholdBytes is the window size: the decoded bytes
	// (vector.Batch.Bytes) a flight keeps resident before its extractor
	// waits for the slowest attached cursor. Batches leaving the window
	// give back admission bytes, so a mount larger than the whole budget
	// completes within it. <= 0 leaves windows unbounded.
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
	// while its mount is blocked returns promptly through Cursor.Next
	// and detaches, holding nothing. The flight's admission wait and
	// extraction are cancelled only when every waiter has detached
	// (abandonment), so one cancelled query never fails its riders.
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
	// catalog.FormatAdapter.MountStream). <= 0 selects the default. A
	// request served from the cache gets the batches of the flight that
	// filled it.
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
//
// A caller reads a cursor as soon as Mount returns it, and then either
// drains it or Closes it: a flight past its threshold waits for every
// attached cursor, a joiner still re-mounting its private prefix
// included.
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
	// InFlightBytes / PeakInFlightBytes track the admission budget, in
	// repository-file bytes (the pre-extraction admission estimate).
	InFlightBytes     int64
	PeakInFlightBytes int64
	// ReplayBytes / PeakReplayBytes track the decoded batches resident
	// in live flights' windows (vector.Batch.Bytes); the peak is updated
	// at every append, so it is the true high-water mark.
	ReplayBytes     int64
	PeakReplayBytes int64
	// SpilledBytes is always 0 (flights never spill); the benchmark reads it.
	SpilledBytes int64 //lint:allow statcheck read by the benchmark module; removed with the ROADMAP item "One `benchmark/` PR: measure the engine, not the run"
	// SpillReplayReads is always 0 (nothing replays from disk); the benchmark reads it.
	SpillReplayReads int64 //lint:allow statcheck read by the benchmark module; removed with the ROADMAP item "One `benchmark/` PR: measure the engine, not the run"
	// AdmissionBytesSaved totals the budget bytes honest (estimate-
	// sized) admissions left free versus whole-file admission.
	AdmissionBytesSaved int64
	// QueueDepth is the number of flights blocked in the admission
	// queue; BudgetWaits counts admissions that had to queue;
	// BudgetCancelled admission waits cancelled by abandonment;
	// WaiterCancels cursors detached by their own request's context;
	// StarvationAvoided the FIFO gate's fairness interventions.
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

	// smu guards the counters; Stats adds the gate's figures to them.
	smu sync.Mutex
	st  Stats

	// single-flight table
	fmu     sync.Mutex
	flights map[string][]*flight
}

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
	s.smu.Lock()
	st := s.st //lint:allow statcheck the counters never hold PerSession; the gate's own copy is set below
	s.smu.Unlock()
	gs := s.gate.Stats()
	st.InFlightBytes, st.PeakInFlightBytes = gs.UsedBytes, gs.PeakBytes
	st.QueueDepth, st.BudgetWaits = gs.QueueDepth, gs.Waits
	st.BudgetCancelled, st.StarvationAvoided = gs.Cancelled, gs.StarvationAvoided
	st.PerSession = gs.PerSession
	return st
}

// count applies one update to the counters.
func (s *Service) count(update func(*Stats)) {
	s.smu.Lock()
	update(&s.st)
	s.smu.Unlock()
}

// Gate exposes the admission gate (benchmarks sample per-session waits).
func (s *Service) Gate() *admission.Gate { return s.gate }

// caching reports whether flights fill the ingestion cache.
func (s *Service) caching() bool {
	return s.cfg.Cache != nil && s.cfg.Cache.Config().Policy != cache.NeverCache
}

// fileGranular reports whether the cache retains whole files, in which
// case flights must extract (and cache) the full file regardless of the
// requested span.
func (s *Service) fileGranular() bool {
	return s.caching() && s.cfg.Cache.Config().Granularity == cache.FileGranular
}

// Mount resolves a request to a batch cursor: joining an in-progress
// flight when one covers the span, serving straight from a covering
// cache entry, or starting a new extraction flight.
func (s *Service) Mount(req Request) (Cursor, error) {
	if req.BatchRows <= 0 {
		req.BatchRows = vector.DefaultBatchSize
	}
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
			// Attach before releasing fmu: cancellation checks the cursors
			// under both locks, so a flight visible in the table can never
			// be abandoned between the containment check and the attach.
			c := f.attach(req.Ctx)
			s.count(func(st *Stats) { st.SingleFlightHits++ })
			s.fmu.Unlock()
			if req.Observe != nil {
				req.Observe(Delta{SingleFlight: true})
			}
			return c, nil
		}
	}
	// Planning races: rule (1) may have chosen Mount while the cache was
	// still empty; by execution time a completed flight may have filled
	// it. Only file-granular entries are safe to serve here (they hold
	// the whole file; a tuple-granular entry holds only the rows of
	// another flight's span and stays the planner's business).
	if s.fileGranular() {
		if bs, ok := s.cfg.Cache.Get(req.URI, span); ok {
			s.count(func(st *Stats) { st.CacheServes++ })
			s.fmu.Unlock()
			if req.Observe != nil {
				req.Observe(Delta{FromCache: true})
			}
			return &staticCursor{batches: bs}, nil
		}
	}
	f := &flight{uri: req.URI, span: span, size: st.Size(), admitBytes: st.Size(), session: req.Session,
		svc: s, path: path, adapter: req.Adapter, batchRows: req.BatchRows}
	f.cond = sync.NewCond(&f.mu)
	// Honest admission: when the planner proved (from the frozen Qf
	// result) that span pruning leaves only part of the file to buffer,
	// admit that estimate instead of the whole-file worst case. Skipped
	// under file-granular caching, where the full file is extracted.
	if req.EstBytes > 0 && req.EstBytes < st.Size() && !s.fileGranular() {
		f.admitBytes = req.EstBytes
	}
	s.flights[req.URI] = append(s.flights[req.URI], f)
	s.count(func(st *Stats) { st.FlightsStarted++ })
	c := f.attach(req.Ctx)
	s.fmu.Unlock()

	go s.run(f, req.Observe)
	return c, nil
}

// run is the flight goroutine: admission, modeled I/O, streaming
// extraction, fan-out and cache fill. The budget is given back as
// batches leave the window, and the rest once the extraction is done
// AND every cursor has drained or closed (see flight.dropLocked and
// flight.unref).
func (s *Service) run(f *flight, observe func(Delta)) {
	finish := func(err error) {
		s.fmu.Lock()
		s.removeLocked(f)
		s.fmu.Unlock()
		f.finish(err)
	}

	if err := s.admit(f); err != nil {
		// Nothing was ever held: the abandoned flight leaves the gate
		// without touching the budget (a cursor racing the abandonment
		// sees the error).
		finish(fmt.Errorf("mountsvc: mount %s: admission: %w", f.uri, err))
		return
	}

	// Model reading the file by touching its pages in the pool: a cold
	// mount pays seek+transfer, a hot repeat is free (the paper's hot
	// protocol). Touch reads no bytes; the adapter reads the file once.
	if s.cfg.Pool != nil {
		s.cfg.Pool.Touch(f.path, f.size)
	}

	// The cache fill streams every extracted batch into the flight's
	// reservation, and the cache keeps what its granularity says: the
	// whole file, or the rows inside the flight's span. A flight that
	// finds the URI reserved by another fills nothing.
	var pending *cache.Pending
	if s.caching() {
		_, _, data := f.adapter.Tables()
		pending = s.cfg.Cache.BeginPut(f.uri, f.span, data.ColumnIndex(f.adapter.DataSpanColumn()))
	}

	rows, pruned := 0, 0
	err := f.adapter.MountStream(f.path, f.uri, f.keep(&pruned), f.batchRows, func(b *vector.Batch) error {
		if s.cfg.OnMount != nil {
			s.cfg.OnMount(f.uri, b)
		}
		pending.Append(b)
		rows += b.Len()
		if !f.append(b) && s.abandonIfUnreferenced(f) {
			return errFlightAbandoned
		}
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
	pending.Commit()
	saved := f.size - f.admitBytes
	s.count(func(st *Stats) { st.AdmissionBytesSaved += saved })
	if observe != nil {
		observe(Delta{
			FileMounted:    true,
			BytesRead:      f.size,
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
// ends the wait. On success the flight holds its admission bytes, which
// the window and the teardown give back exactly once in total.
func (s *Service) admit(f *flight) error {
	actx, cancel := context.WithCancel(context.Background()) //lint:allow ctxcheck the flight's wait is deliberately detached from any one waiter's ctx; abandonment is its only cancellation
	defer cancel()
	// A flight whose every waiter detached while it was still queued
	// must not sit in the gate forever: abandonment cancels the wait.
	f.mu.Lock()
	if f.cancelAdmit = cancel; f.abandonMarked {
		cancel()
	}
	f.mu.Unlock()
	if err := s.gate.Acquire(actx, f.session, f.admitBytes); err != nil { //lint:allow releasecheck the flight record owns this admission; batches leaving the window and the teardown give it back exactly once in total, gated by f.released
		return err
	}
	f.mu.Lock()
	f.admitHeld = f.admitBytes
	f.mu.Unlock()
	return nil
}

// retire gives back admission bytes (0 when there are none to give)
// and takes decoded bytes off the replay gauge: the accounting of
// batches leaving a window and of a flight's teardown. The gate panics
// on a double release rather than silently over-admitting.
func (s *Service) retire(session string, admitted, buffered int64) {
	if admitted > 0 {
		s.gate.Release(session, admitted)
	}
	s.count(func(st *Stats) { st.ReplayBytes -= buffered })
}

// abandonIfUnreferenced cancels a flight whose every cursor has detached:
// it leaves the single-flight table (no later request can join a dying
// extraction), a pending admission wait is cancelled, and the caller
// (the emit callback) stops the adapter stream. The cursor check runs
// under both locks, like the join path, so a request that found the
// flight in the table has attached before this can see none. The emit
// callback and the last unref may both get here: abandonMarked keeps it
// single-shot, and admit checks it for an abandonment before the wait.
func (s *Service) abandonIfUnreferenced(f *flight) bool {
	s.fmu.Lock()
	f.mu.Lock()
	if len(f.curs) > 0 || f.done {
		f.mu.Unlock()
		s.fmu.Unlock()
		return false
	}
	if !f.abandonMarked {
		f.abandonMarked = true
		s.count(func(st *Stats) { st.FlightsCancelled++ })
		if f.cancelAdmit != nil {
			f.cancelAdmit()
		}
	}
	f.mu.Unlock()
	s.removeLocked(f)
	s.fmu.Unlock()
	return true
}

// removeLocked drops a flight from the single-flight table; callers hold
// fmu. Removing an already-removed flight is a no-op.
func (s *Service) removeLocked(f *flight) {
	if fs := slices.DeleteFunc(s.flights[f.uri], func(o *flight) bool { return o == f }); len(fs) > 0 {
		s.flights[f.uri] = fs
	} else {
		delete(s.flights, f.uri)
	}
}

// flight is one in-progress extraction and its window: the batches some
// attached cursor has yet to read. The head is the slowest cursor's
// position. Admission bytes leave with the batches, and the rest is
// held until the extraction is done AND the last cursor has detached.
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
	// The extraction, as a joiner's prefix repeats it.
	path      string
	adapter   catalog.FormatAdapter
	batchRows int

	mu            sync.Mutex
	cond          *sync.Cond
	curs          []*flightCursor // attached cursors
	batches       []*vector.Batch // resident window: global indices [base, base+len)
	base          int
	buffered      int64 // resident window bytes (vector.Batch.Bytes)
	parked        bool  // the extractor waits for a cursor behind the tail
	done          bool  // the extraction is over; err is its outcome
	err           error
	admitHeld     int64  // admission bytes still held (0 until admitted)
	released      bool   // teardown accounting done
	abandonMarked bool   // counted as cancelled; admission wait cancelled
	cancelAdmit   func() // cancels the admission wait; set when it starts
}

// errFlightAbandoned stops an extraction whose every waiter has
// detached; errPrefixDone stops a joiner's prefix extraction.
var (
	errFlightAbandoned = errors.New("mountsvc: flight abandoned by all waiters")
	errPrefixDone      = errors.New("mountsvc: prefix done")
)

// attach adds a cursor at the window's head, reading from there. A
// cursor attaching after the head has left batch 0 first reads batches
// [0, head) through its own prefix extraction (see flightCursor.Next);
// the window keeps its attach position meanwhile.
func (f *flight) attach(ctx context.Context) *flightCursor {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := &flightCursor{f: f, ctx: ctx, i: f.headLocked()}
	c.reading = c.i == 0
	f.curs = append(f.curs, c)
	return c
}

// headLocked returns the window's head: the slowest attached cursor's
// position, or the tail when no cursor is attached.
func (f *flight) headLocked() int {
	head := f.base + len(f.batches)
	for _, c := range f.curs {
		head = min(head, c.i)
	}
	return head
}

// keep is the record filter of the flight's span (nil for a full span,
// which includes every flight under file-granular caching); it counts
// the records it drops in pruned.
func (f *flight) keep(pruned *int) func(catalog.RecordMeta) bool {
	if f.span.Full {
		return nil
	}
	return func(rm catalog.RecordMeta) bool {
		rlo, rhi, known := f.adapter.RecordSpan(rm)
		if known && (rhi < f.span.Lo || rlo > f.span.Hi) {
			*pruned++
			return false
		}
		return true
	}
}

// prefix extracts the flight's first n batches again, for a cursor that
// attached at n: the same span, adapter and batch size emit the same
// sequence. It holds no admission (one batch at a time), calls no
// OnMount and fills no cache; its Touch finds the pages the flight has
// just touched.
func (f *flight) prefix(n int) iter.Seq2[*vector.Batch, error] {
	return func(yield func(*vector.Batch, error) bool) {
		if f.svc.cfg.Pool != nil {
			f.svc.cfg.Pool.Touch(f.path, f.size)
		}
		err := f.adapter.MountStream(f.path, f.uri, f.keep(new(int)), f.batchRows, func(b *vector.Batch) error {
			if b.Len() == 0 {
				return nil
			}
			if n--; !yield(b, nil) || n == 0 {
				return errPrefixDone
			}
			return nil
		})
		if err == nil {
			err = fmt.Errorf("mountsvc: mount %s: prefix ended %d batches short", f.uri, n)
		}
		if !errors.Is(err, errPrefixDone) {
			yield(nil, err)
		}
	}
}

// unref detaches a cursor (it drained to the end, errored, or closed):
// the batches only it pinned leave the window and a parked extractor
// re-checks. The last detach after extraction releases the budget; the
// last before it — all waiters walked away — abandons the flight, which
// also unblocks an admission wait still queued in the gate.
func (f *flight) unref(c *flightCursor) {
	f.mu.Lock()
	f.curs = slices.DeleteFunc(f.curs, func(o *flightCursor) bool { return o == c })
	abandon := len(f.curs) == 0 && !f.done
	f.dropLocked()
	f.cond.Broadcast()
	f.maybeReleaseLocked()
	f.mu.Unlock()
	if abandon {
		f.svc.abandonIfUnreferenced(f)
	}
}

// finish ends the extraction, whether it succeeded or failed: cursors
// see the end of the stream, and with none left the budget is released.
func (f *flight) finish(err error) {
	f.mu.Lock()
	f.done, f.err = true, err
	f.maybeReleaseLocked()
	f.mu.Unlock()
	f.cond.Broadcast()
}

// maybeReleaseLocked returns the flight's remaining bytes exactly once,
// on every path that can end a flight (drain, error, cancellation, and
// an admission wait that never held anything — admitHeld stays 0).
func (f *flight) maybeReleaseLocked() {
	if f.done && len(f.curs) == 0 && !f.released {
		f.released = true
		f.svc.retire(f.session, f.admitHeld, f.buffered)
	}
}

// dropLocked is the one path by which resident batches leave memory:
// those every cursor is past leave the replay gauge and give back a
// matching share of admission, which is what lets a file bigger than the
// whole budget stream through it.
func (f *flight) dropLocked() {
	n := f.headLocked() - f.base
	if n == 0 {
		return
	}
	var freed int64
	for _, b := range f.batches[:n] {
		freed += b.Bytes()
	}
	clear(f.batches[:n])
	f.batches, f.base, f.buffered = f.batches[n:], f.base+n, f.buffered-freed
	rel := min(f.admitHeld, freed)
	f.admitHeld -= rel
	f.svc.retire(f.session, rel, freed)
}

// append stores one extracted batch at the window's tail; cursors take
// copy-on-write shares of it. Past the threshold it waits while some
// cursor is behind the tail. It reports false once every cursor has
// detached.
func (f *flight) append(b *vector.Batch) bool {
	if b == nil || b.Len() == 0 {
		return true
	}
	n := b.Bytes()
	f.svc.count(func(st *Stats) {
		st.ReplayBytes += n
		st.PeakReplayBytes = max(st.PeakReplayBytes, st.ReplayBytes)
	})
	f.mu.Lock()
	defer f.mu.Unlock()
	f.batches = append(f.batches, b)
	f.buffered += n
	f.cond.Broadcast()
	limit := f.svc.cfg.SpillThresholdBytes
	for limit > 0 && f.buffered > limit && f.headLocked() < f.base+len(f.batches) {
		f.parked = true
		f.cond.Wait()
		f.parked = false
	}
	return len(f.curs) > 0
}

// flightCursor is one waiter's position in a flight. Closing it detaches
// the waiter without affecting the flight or other waiters. A cursor
// detaches as soon as it reaches end of stream, not only at Close: a
// sequential union closes its inputs at query end, and holding the
// window and budget that long would deadlock later mounts of the query.
//
// Cancellation is per-cursor: when the request context dies, Next
// returns its error promptly, even while the flight is queued on the
// admission budget, and the waiter detaches like a Close. The flight is
// unaffected unless this was its last waiter (abandonment).
type flightCursor struct {
	f        *flight
	ctx      context.Context // may be nil: uncancellable
	stop     func() bool     // releases the ctx watcher
	i        int             // global index of the next batch; written under f.mu
	reading  bool            // past its prefix: Next reads the window
	detached bool

	// A joiner's private extraction of batches [0, attach position).
	prefix     func() (*vector.Batch, error, bool)
	stopPrefix func()
}

// Next implements Cursor.
func (c *flightCursor) Next() (*vector.Batch, error) {
	if c.detached {
		return nil, nil
	}
	if !c.reading && (c.ctx == nil || c.ctx.Err() == nil) {
		// A joiner still before its attach position: until its prefix is
		// exhausted, this Next does not touch the flight.
		if c.prefix == nil {
			c.prefix, c.stopPrefix = iter.Pull2(c.f.prefix(c.i))
		}
		if b, err, ok := c.prefix(); ok {
			if err != nil {
				c.detach()
			}
			return b, err
		}
	}
	f := c.f
	if c.ctx != nil && c.stop == nil {
		// Wake this waiter when its context dies, broadcasting under f.mu
		// so the wakeup cannot slip between its ctx check and cond.Wait.
		c.stop = context.AfterFunc(c.ctx, func() {
			f.mu.Lock()
			f.cond.Broadcast()
			f.mu.Unlock()
		})
	}
	c.reading = true
	f.mu.Lock()
	for {
		if c.ctx != nil {
			if err := c.ctx.Err(); err != nil {
				f.mu.Unlock()
				c.detach()
				f.svc.count(func(st *Stats) { st.WaiterCancels++ })
				return nil, err
			}
		}
		if idx := c.i - f.base; idx < len(f.batches) {
			// Fan out a copy-on-write share: every waiter gets its own
			// handle over the window's storage in O(1).
			b := f.batches[idx].Share()
			c.advanceLocked()
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

// advanceLocked moves the cursor past one batch: when it was the first
// resident one, what every cursor has now passed leaves memory. Only a
// parked extractor needs the news, so only then does it broadcast.
func (c *flightCursor) advanceLocked() {
	f := c.f
	if c.i++; c.i-1 == f.base {
		f.dropLocked()
	}
	if f.parked {
		f.cond.Broadcast()
	}
}

// detach ends the cursor's attachment exactly once and releases its
// context watcher and prefix extraction.
func (c *flightCursor) detach() {
	if c.detached {
		return
	}
	c.detached = true
	if c.stop != nil {
		c.stop()
	}
	if c.stopPrefix != nil {
		c.stopPrefix()
	}
	c.f.unref(c)
}

// Close implements Cursor.
func (c *flightCursor) Close() error {
	c.detach()
	return nil
}

// staticCursor walks the batches of a cache entry: copy-on-write shares
// aliasing the entry's storage, so reads are free, and a consumer
// writing to one materializes a private copy without touching the entry.
type staticCursor struct {
	batches []*vector.Batch
}

// Next implements Cursor.
func (c *staticCursor) Next() (*vector.Batch, error) {
	if len(c.batches) == 0 {
		return nil, nil
	}
	b := c.batches[0]
	c.batches = c.batches[1:]
	return b, nil
}

// Close implements Cursor.
func (c *staticCursor) Close() error {
	c.batches = nil
	return nil
}
