// Package admission is the engine's FIFO byte-budget gate, behind the
// mount service's in-flight extraction budget. It replaces the
// hand-rolled condition-variable gates the engine used to carry, which
// had two load-bearing bugs:
//
//   - Uncancellable waits: a request blocked on the budget had no way
//     out, even though the work it was admitting (flights, queries) was
//     already cancel-aware. Acquire takes a context.Context and unblocks
//     promptly on cancellation, holding nothing it was never granted.
//   - Broadcast starvation: Broadcast-driven wait loops re-race every
//     waiter on each release, so a stream of small requests can leapfrog
//     a large waiter forever. The gate keeps a FIFO ticket queue with
//     handoff wakeups: releases admit from the queue head, and a later
//     request never passes an earlier one that is still blocked on the
//     byte budget.
//
// Sessions are an accounting identity, not a policy: the gate counts
// each session's held bytes, waits and cancellations, and admits every
// session's tickets in the same one queue.
package admission

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Config parameterizes a Gate.
type Config struct {
	// BudgetBytes bounds the total bytes held at once; <= 0 means
	// unlimited (the gate still tracks usage and per-session stats). A
	// single request larger than the whole budget is admitted only when
	// nothing else is held, so it can never deadlock but may exceed the
	// budget alone.
	BudgetBytes int64
}

// SessionStats is one session's view of the gate.
type SessionStats struct {
	// HeldBytes / PeakHeldBytes track the session's current and peak
	// admitted bytes.
	HeldBytes     int64
	PeakHeldBytes int64
	// Acquires counts granted admissions; Waits
	// counts acquires that had to queue.
	Acquires int64
	Waits    int64
	// Cancelled counts waits abandoned via context cancellation.
	Cancelled int64
	// WaitTotal / WaitMax aggregate time spent blocked in Acquire.
	WaitTotal time.Duration
	WaitMax   time.Duration
}

// Stats is a gate-wide snapshot.
type Stats struct {
	// UsedBytes / PeakBytes track total admitted bytes.
	UsedBytes int64
	PeakBytes int64
	// QueueDepth is the number of tickets currently blocked in Acquire.
	QueueDepth int
	// Waits counts acquires that had to queue; Cancelled counts waits
	// abandoned via context cancellation.
	Waits     int64
	Cancelled int64
	// StarvationAvoided counts admission scans in which a later, smaller
	// request was held back behind a budget-blocked queue head — the
	// wakeup races a Broadcast-driven gate would have lost, starving the
	// head.
	StarvationAvoided int64
	// PerSession maps session identity to its counters.
	PerSession map[string]SessionStats
}

// Gate is the FIFO budget gate. It is safe for concurrent use.
type Gate struct {
	cfg Config

	mu       sync.Mutex
	used     int64
	peak     int64
	queue    []*ticket // FIFO; nil-compacted on removal
	sessions map[string]*sessionState

	waits     int64
	cancelled int64
	avoided   int64
}

type sessionState struct{ SessionStats }

// ticket is one blocked Acquire.
type ticket struct {
	sess    *sessionState
	n       int64
	ready   chan struct{} // closed under mu when granted
	granted bool
}

// New returns a gate over the configuration.
func New(cfg Config) *Gate {
	return &Gate{cfg: cfg, sessions: make(map[string]*sessionState)}
}

func (g *Gate) session(name string) *sessionState {
	s, ok := g.sessions[name]
	if !ok {
		s = &sessionState{}
		g.sessions[name] = s
	}
	return s
}

// fitsBudget reports whether n more bytes fit the global budget. An
// oversized request fits only an empty gate (admitted alone).
func (g *Gate) fitsBudget(n int64) bool {
	return g.cfg.BudgetBytes <= 0 || g.used == 0 || g.used+n <= g.cfg.BudgetBytes
}

// grantLocked admits n bytes to the session; callers hold mu.
func (g *Gate) grantLocked(s *sessionState, n int64) {
	g.used += n
	if g.used > g.peak {
		g.peak = g.used
	}
	s.HeldBytes += n
	if s.HeldBytes > s.PeakHeldBytes {
		s.PeakHeldBytes = s.HeldBytes
	}
	s.Acquires++
}

// admitLocked is the handoff scan: admit tickets from the queue head
// while they fit the budget. The first ticket that does not fit stops
// the scan — strict FIFO on the shared resource is what closes the
// starvation window. Callers hold mu.
func (g *Gate) admitLocked() {
	for len(g.queue) > 0 {
		t := g.queue[0]
		if !g.fitsBudget(t.n) {
			// Nothing behind the head may be admitted. Count the scan as
			// starvation-avoided when a later ticket would have fit — the
			// admission a Broadcast gate would have raced past the head.
			for _, later := range g.queue[1:] {
				if g.fitsBudget(later.n) {
					g.avoided++
					break
				}
			}
			return
		}
		g.queue = append(g.queue[:0], g.queue[1:]...)
		g.grantLocked(t.sess, t.n)
		t.granted = true
		close(t.ready)
	}
}

// Acquire blocks until session may hold n more bytes, or ctx is done.
// On error the caller holds nothing: a cancelled waiter leaves the queue
// without disturbing tickets around it, and a grant racing the
// cancellation is returned to the pool. A nil ctx means no cancellation.
func (g *Gate) Acquire(ctx context.Context, session string, n int64) error {
	if n < 0 {
		n = 0
	}
	if ctx == nil {
		ctx = context.Background() //lint:allow ctxcheck the documented nil-ctx contract means "no cancellation"; Background is that contract's spelling
	}
	g.mu.Lock()
	s := g.session(session)
	// An already-cancelled request is never granted, even when it would
	// fit: the caller has walked away and must deterministically hold
	// nothing.
	if err := ctx.Err(); err != nil {
		g.cancelled++
		s.Cancelled++
		g.mu.Unlock()
		return err
	}
	// Fast path: nothing queued ahead and the budget fits. With a
	// non-empty queue even a fitting request must enqueue — jumping the
	// line is exactly the race this gate exists to close.
	if len(g.queue) == 0 && g.fitsBudget(n) {
		g.grantLocked(s, n)
		g.mu.Unlock()
		return nil
	}
	t := &ticket{sess: s, n: n, ready: make(chan struct{})}
	g.queue = append(g.queue, t)
	g.waits++
	s.Waits++
	start := time.Now()
	// The head is budget-blocked (or this ticket is the head and does
	// not fit), so this scan admits nothing. It runs for its count: when
	// the new ticket would fit behind a blocked head, that is a
	// leapfrog held back, counted in StarvationAvoided.
	g.admitLocked()
	g.mu.Unlock()

	select {
	case <-t.ready:
		g.noteWait(s, time.Since(start))
		return nil
	case <-ctx.Done():
	}
	g.mu.Lock()
	if t.granted {
		// The grant raced the cancellation: give it back and report the
		// cancel — the caller must be able to trust that an error means
		// nothing is held.
		g.used -= n
		s.HeldBytes -= n
		s.Acquires--
	} else {
		for i, q := range g.queue {
			if q == t {
				g.queue = append(g.queue[:i], g.queue[i+1:]...)
				break
			}
		}
	}
	// A returned grant, or a removed budget-blocked head, may admit the
	// tickets queued behind it.
	g.admitLocked()
	g.cancelled++
	s.Cancelled++
	g.mu.Unlock()
	g.noteWait(s, time.Since(start))
	return ctx.Err()
}

func (g *Gate) noteWait(s *sessionState, d time.Duration) {
	g.mu.Lock()
	s.WaitTotal += d
	if d > s.WaitMax {
		s.WaitMax = d
	}
	g.mu.Unlock()
}

// Release gives back n bytes held by the session and hands the freed
// capacity to the queue head. Releasing bytes never acquired is a
// caller bug (a double release) and panics loudly rather than silently
// over-admitting forever after.
func (g *Gate) Release(session string, n int64) {
	if n < 0 {
		n = 0
	}
	g.mu.Lock()
	s := g.session(session)
	g.used -= n
	s.HeldBytes -= n
	if g.used < 0 || s.HeldBytes < 0 {
		g.mu.Unlock()
		panic(fmt.Sprintf("admission: double release: session %q releasing %d holds %d (gate %d)",
			session, n, s.HeldBytes+n, g.used+n))
	}
	g.admitLocked()
	g.mu.Unlock()
}

// Stats returns a snapshot of the gate, including every session seen.
func (g *Gate) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := Stats{
		UsedBytes: g.used, PeakBytes: g.peak,
		QueueDepth: len(g.queue),
		Waits:      g.waits, Cancelled: g.cancelled,
		StarvationAvoided: g.avoided,
		PerSession:        make(map[string]SessionStats, len(g.sessions)),
	}
	for name, s := range g.sessions {
		st.PerSession[name] = s.SessionStats
	}
	return st
}
