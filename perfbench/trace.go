package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The benchmark keeps its own spans: the program's tracer (internal/obs)
// is itself a layer under test, so the recorder must not depend on it.

// span is one timed call into a layer. Times are nanoseconds since the
// recorder started; Parent is 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder holds spans in memory until the run writes them out.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID for end.
func (r *recorder) begin(name string, parent int, req string) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Req: req, Start: now})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// timed runs f inside a span.
func (r *recorder) timed(name string, parent int, req string, f func()) {
	id := r.begin(name, parent, req)
	f()
	r.end(id)
}

// spanCtx carries the enclosing span into calls the benchmark cannot
// wrap directly, such as simulators invoked on the sweep engine's
// workers.
type spanCtx struct {
	id  int
	req string
}

type spanKey struct{}

func withSpan(ctx context.Context, id int, req string) context.Context {
	return context.WithValue(ctx, spanKey{}, spanCtx{id, req})
}

func spanFrom(ctx context.Context) spanCtx {
	s, _ := ctx.Value(spanKey{}).(spanCtx)
	return s
}

// layerStat aggregates every span of one name.
type layerStat struct {
	Calls int
	Total time.Duration // summed span durations
	Self  time.Duration // summed durations minus the time children cover
}

// perCall is the mean self time of one call, in microseconds.
func (s layerStat) perCall() float64 {
	if s.Calls == 0 {
		return 0
	}
	return float64(s.Self.Nanoseconds()) / 1e3 / float64(s.Calls)
}

// aggregate folds the spans by name. A span's self time is its duration
// minus the union of its children's intervals clipped to it, so
// overlapping children (parallel workers) are not subtracted twice.
func (r *recorder) aggregate() map[string]layerStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerStat)
	for _, s := range r.spans {
		dur := s.End - s.Start
		covered := coveredNS(s, children[s.ID])
		st := out[s.Name]
		st.Calls++
		st.Total += time.Duration(dur)
		st.Self += time.Duration(dur - covered)
		out[s.Name] = st
	}
	return out
}

// childTotals sums, by name, the durations of the direct children of
// every span named one of roots.
func (r *recorder) childTotals(roots ...string) map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	isRoot := make(map[int]bool)
	for _, s := range r.spans {
		for _, name := range roots {
			if s.Name == name {
				isRoot[s.ID] = true
			}
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range r.spans {
		if isRoot[s.Parent] {
			out[s.Name] += time.Duration(s.End - s.Start)
		}
	}
	return out
}

// coveredNS is the length of the union of the children's intervals
// inside the parent's interval.
func coveredNS(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// write dumps every span as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
