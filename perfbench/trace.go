package main

import (
	"cmp"
	"slices"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 for a request's
// root). Start and End are nanoseconds since the tracer started. N is the
// units of work the call handled (values, members, queries), so per-unit
// costs can be derived from the spans alone.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op costing one nil check, so the
// same workload code serves both modes.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// end closes span id, recording n units of work.
func (t *tracer) end(id, n int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].N = n
}

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, for each span, its duration minus the part of its
// interval covered by its children. Children may overlap one another (a
// fan-out runs them concurrently) or outlive the parent; only the union
// of their intervals clipped to the parent counts, so self time is never
// negative.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][][2]int64)
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				children[s.Parent] = append(children[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		iv := children[s.ID]
		slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		var covered, curLo, curHi int64
		for i, c := range iv {
			switch {
			case i == 0:
				curLo, curHi = c[0], c[1]
			case c[0] <= curHi:
				curHi = max(curHi, c[1])
			default:
				covered += curHi - curLo
				curLo, curHi = c[0], c[1]
			}
		}
		if len(iv) > 0 {
			covered += curHi - curLo
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// spanTotals aggregates spans by name.
type spanTotals struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
	N       int64 `json:"n"`
}

func totalsByName(spans []span) map[string]*spanTotals {
	self := selfTimes(spans)
	out := make(map[string]*spanTotals)
	for _, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &spanTotals{}
			out[s.Name] = t
		}
		t.Count++
		t.TotalNs += s.End - s.Start
		t.SelfNs += self[s.ID]
		t.N += s.N
	}
	return out
}

// perUnit returns a span name's total time per unit of work in the given
// scale (e.g. time.Microsecond), or 0 when the name was never recorded.
func perUnit(tot map[string]*spanTotals, name string, scale time.Duration) float64 {
	t := tot[name]
	if t == nil {
		return 0
	}
	return ratio(float64(t.TotalNs), float64(t.N)*float64(scale))
}

// perCall is perUnit over calls instead of units of work.
func perCall(tot map[string]*spanTotals, name string, scale time.Duration) float64 {
	t := tot[name]
	if t == nil {
		return 0
	}
	return ratio(float64(t.TotalNs), float64(t.Count)*float64(scale))
}
