package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed call in a traced run. Spans the benchmark times
// itself carry start and end; spans derived from the engine's span tree
// carry only a duration and hang off the pass span that produced them.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Item   string `json:"item"`
	Start  int64  `json:"start_ns,omitempty"`
	End    int64  `json:"end_ns,omitempty"`
	Dur    int64  `json:"dur_ns"`
	Chunk  int    `json:"chunk"`
}

// recorder keeps a traced run's spans in memory until exit. A nil
// recorder records nothing, so untraced code paths need no guard.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	chunk int
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) begin(name, item string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Item: item, Start: now, Chunk: r.chunk})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	s.Dur = now - s.Start
}

// add records a span known only by its duration.
func (r *recorder) add(name, item string, parent int, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Item: item, Dur: d.Nanoseconds(), Chunk: r.chunk})
}

// engineSpans folds one pass's engine span tree into match, depend and
// act times plus the pass's own self time, which is the dep.Compute every
// interpreted pass starts with. The engine does not split the terminating
// search (the one that finds no point), so it counts as match. A point
// span opens after its search, so it covers only the action; match and
// depend hang under it with durations measured before it opened.
func (r *recorder) engineSpans(item string, parent int, root *obs.Span) {
	if r == nil || root == nil {
		return
	}
	var match, depend, act time.Duration
	for _, c := range root.Children {
		switch c.Name {
		case "search":
			match += c.Duration
		case "point":
			for _, g := range c.Children {
				switch g.Name {
				case "match":
					match += g.Duration
				case "depend":
					depend += g.Duration
				case "action":
					act += g.Duration
				}
			}
		}
	}
	r.add("engine.match", item, parent, match)
	r.add("engine.depend", item, parent, depend)
	r.add("engine.act", item, parent, act)
	r.add("dep.compute", item, parent, root.Duration-match-depend-act)
}

// totals sums calibrated span durations by name, in seconds; factor maps
// a chunk index to its calibration factor.
func (r *recorder) totals(factor func(chunk int) float64) map[string]float64 {
	out := map[string]float64{}
	if r == nil {
		return out
	}
	for _, s := range r.spans {
		out[s.Name] += float64(s.Dur) / 1e9 * factor(s.Chunk)
	}
	return out
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
