package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one query share its id;
// Parent is the span that caused this one (-1 for none). Ops is how many
// identical operations the span covers, for calls too short to time one
// at a time.
type span struct {
	Name       string
	Parent     int
	Query      int
	Start, End time.Duration // since the tracer's origin
	Ops        int
}

func (s span) duration() time.Duration { return s.End - s.Start }

const noSpan = -1

// tracer keeps spans in memory until the run ends. All spans are recorded
// from the benchmark's own files, around calls into public functions;
// spans inside the engine are a later change (ROADMAP item 3).
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, parent, query int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Query: query, Ops: 1, Start: time.Since(t.origin)})
	return len(t.spans) - 1
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return now - t.spans[id].Start
}

// timed records fn as one span; fn reports how many operations it covered
// (at least one is assumed).
func (t *tracer) timed(name string, parent, query int, fn func() (ops int, err error)) (time.Duration, error) {
	id := t.begin(name, parent, query)
	ops, err := fn()
	took := t.end(id)
	t.mu.Lock()
	t.spans[id].Ops = max(ops, 1)
	t.mu.Unlock()
	return took, err
}

// byName groups the recorded spans by name.
func (t *tracer) byName() map[string][]span {
	out := make(map[string][]span)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// perOp is the total time of the spans divided by the operations they
// covered, in the given unit; 0 when there are none.
func perOp(spans []span, unit time.Duration) float64 {
	var total time.Duration
	ops := 0
	for _, s := range spans {
		total += s.duration()
		ops += s.Ops
	}
	if ops == 0 {
		return 0
	}
	return float64(total) / float64(unit) / float64(ops)
}

func totalTime(spans []span) time.Duration {
	var total time.Duration
	for _, s := range spans {
		total += s.duration()
	}
	return total
}

// selfTimes returns, per span, its duration minus the part of it that its
// child spans cover.
func (t *tracer) selfTimes() []time.Duration {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, reach := time.Duration(0), s.Start
		for _, k := range kids {
			from, to := max(t.spans[k].Start, reach), min(t.spans[k].End, s.End)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[i] = s.duration() - covered
	}
	return self
}

// write dumps every span as one JSON array, one object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	self := t.selfTimes()
	fmt.Fprintln(w, "[")
	for i, s := range t.spans {
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"query":%d,"name":%q,"start_ns":%d,"end_ns":%d,"self_ns":%d,"ops":%d}%s`+"\n",
			i, s.Parent, s.Query, s.Name, s.Start.Nanoseconds(), s.End.Nanoseconds(), self[i].Nanoseconds(), s.Ops, sep)
	}
	fmt.Fprintln(w, "]")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
