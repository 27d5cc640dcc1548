// Package releasefix seeds releasecheck violations: admission
// acquisitions and cache reservations leaked on some path, plus the
// allowed patterns (defers, all-paths releases, escapes, wrappers and
// the //lint:allow escape hatch).
package releasefix

import (
	"context"
	"errors"

	"repro/internal/admission"
	"repro/internal/cache"
)

func work() {}

func leakNoRelease(g *admission.Gate) error {
	if err := g.Acquire(nil, "s", 64); err != nil { // want `admission.Acquire is not released on every path`
		return err
	}
	work()
	return nil
}

func leakEarlyReturn(g *admission.Gate, fail bool) error {
	if err := g.Acquire(nil, "s", 64); err != nil { // want `admission.Acquire is not released on every path`
		return err
	}
	if fail {
		return errors.New("early exit skips the release")
	}
	g.Release("s", 64)
	return nil
}

func leakOnPanic(g *admission.Gate, n int64) {
	if err := g.Acquire(nil, "s", n); err != nil { // want `admission.Acquire is not released on every path`
		return
	}
	if n > 1<<40 {
		panic("absurd request")
	}
	g.Release("s", n)
}

func leakDiscardedError(g *admission.Gate) {
	_ = g.Acquire(nil, "s", 8) // want `admission.Acquire is not released on every path`
}

func leakPendingDiscard(m *cache.Manager) {
	m.BeginPut("file://a", cache.FullSpan(), -1) // want `result of cache.BeginPut is discarded`
}

func leakPendingEarlyReturn(m *cache.Manager, fail bool) error {
	p := m.BeginPut("file://b", cache.FullSpan(), -1) // want `cache.BeginPut is not released on every path`
	if fail {
		return errors.New("reservation leaked")
	}
	p.Commit()
	return nil
}

// --- allowed patterns ---

func okDeferred(g *admission.Gate, n int64) error {
	if err := g.Acquire(nil, "s", n); err != nil {
		return err
	}
	defer g.Release("s", n)
	work()
	return nil
}

func okDeferredClosure(g *admission.Gate) error {
	if err := g.Acquire(nil, "s", 8); err != nil {
		return err
	}
	defer func() {
		work()
		g.Release("s", 8)
	}()
	work()
	return nil
}

func okBothBranches(g *admission.Gate, flag bool) error {
	if err := g.Acquire(nil, "s", 8); err != nil {
		return err
	}
	if flag {
		g.Release("s", 8)
		return nil
	}
	g.Release("s", 8)
	return nil
}

func okWrapper(ctx context.Context, g *admission.Gate) error {
	return g.Acquire(ctx, "wrapped", 8) // the caller owns the release
}

func okPendingBothPaths(m *cache.Manager, fail bool) error {
	p := m.BeginPut("file://c", cache.FullSpan(), -1)
	if fail {
		p.Abort()
		return errors.New("aborted")
	}
	p.Commit()
	return nil
}

func okPendingEscapesByReturn(m *cache.Manager) *cache.Pending {
	return m.BeginPut("file://d", cache.FullSpan(), -1) // the caller owns the reservation
}

func okPendingEscapesToClosure(m *cache.Manager) func() {
	p := m.BeginPut("file://e", cache.FullSpan(), -1)
	return func() { p.Abort() } // the closure owns the reservation
}

func okAllowed(g *admission.Gate) error {
	if err := g.Acquire(nil, "s", 8); err != nil { //lint:allow releasecheck a teardown elsewhere pairs this acquisition (fixture)
		return err
	}
	work()
	return nil
}
