package trace

import (
	"fmt"
	"hash/fnv"
	"io"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// Tail-based sampling. Head sampling (decide at ingress) throws away
// exactly the traces worth keeping — the ones that turn out slow or broken.
// The store instead receives every completed fragment and decides then:
//
//   - error fragments (status >= 400, including the optimizer's structured
//     422s, or an error annotation) are always kept;
//   - slow fragments — root latency at or above the per-route SlowQuantile,
//     estimated from a histogram fed by all traffic, after SlowMin
//     observations of the route — are always kept;
//   - fragments of a trace the store already holds are kept (sticky), so a
//     trace sampled at one hop is not truncated at the next;
//   - of the unremarkable rest, a deterministic 1-in-SampleN by trace-ID
//     hash survives. Deterministic matters in a cluster: every node makes
//     the same keep decision for the same trace ID, so a sampled trace is
//     retained whole on every node it touched rather than as scattered
//     fragments.
//
// Memory is bounded by Capacity fragments (ring eviction, oldest first).
// With Dir set, kept fragments are also appended to a spill log (a
// wal.Log, without per-append fsync: traces are diagnostics) and replayed
// on open, so a restart keeps the recent trace window.

// Decision values returned by Record.
const (
	DecisionError   = "error"
	DecisionSlow    = "slow"
	DecisionSticky  = "sticky"
	DecisionSampled = "sampled"
	DecisionDropped = "dropped"
)

// Config tunes a Store. The zero value selects production defaults.
type Config struct {
	// Capacity bounds retained fragments; 0 selects 1024.
	Capacity int
	// SampleN keeps 1 in N unremarkable traces; 0 selects 16, 1 keeps all.
	SampleN int
	// SlowQuantile is the per-route latency quantile at or above which a
	// fragment counts as slow; 0 selects 0.95.
	SlowQuantile float64
	// SlowMin is the per-route observation floor before slow detection
	// activates (a quantile over three requests is noise); 0 selects 64.
	SlowMin int64
	// Dir, when set, spills kept fragments to Dir/traces.log; empty keeps
	// the window in memory only.
	Dir string
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 1024
	}
	if c.SampleN <= 0 {
		c.SampleN = 16
	}
	if c.SlowQuantile <= 0 || c.SlowQuantile >= 1 {
		c.SlowQuantile = 0.95
	}
	if c.SlowMin <= 0 {
		c.SlowMin = 64
	}
	return c
}

// spillCompactBytes is the spill-log size that triggers a compaction
// rewrite down to the live window.
const spillCompactBytes = 4 << 20

// fragRec is a stored fragment — also the spill-log record shape.
type fragRec struct {
	TraceID  string  `json:"trace_id"`
	Route    string  `json:"route"`
	Decision string  `json:"decision"`
	Spans    []*Span `json:"spans"`
}

// Stats is a snapshot of the store's counters for /metrics.
type Stats struct {
	// Decision counters since process start (replayed spill records are
	// excluded: they were counted by the process that recorded them).
	KeptError   int64
	KeptSlow    int64
	KeptSticky  int64
	KeptSampled int64
	Dropped     int64
	// Evicted counts fragments pushed out of the ring by newer ones.
	Evicted int64
	// Live window gauges.
	Fragments int64
	Spans     int64
	// SpillBytes is the spill log's current size; 0 with no spill.
	SpillBytes int64
}

// Summary is one fragment in a /v1/traces listing.
type Summary struct {
	TraceID    string    `json:"trace_id"`
	Name       string    `json:"name"`
	Route      string    `json:"route"`
	Node       string    `json:"node,omitempty"`
	Start      time.Time `json:"start"`
	DurationUS int64     `json:"duration_us"`
	Status     int       `json:"status,omitempty"`
	Error      string    `json:"error,omitempty"`
	Engine     string    `json:"engine,omitempty"`
	Order      string    `json:"order,omitempty"`
	Decision   string    `json:"decision"`
	Spans      int       `json:"spans"`
}

// Query filters a listing. Zero fields match everything.
type Query struct {
	Route      string
	Engine     string
	Order      string
	Status     int
	ErrorsOnly bool
	MinDur     time.Duration
	Limit      int // 0 selects 50
}

// Store is the per-node trace window. Safe for concurrent use.
type Store struct {
	cfg Config

	mu      sync.Mutex
	frags   []*fragRec
	byTrace map[string][]*fragRec
	routes  map[string]*obs.Histogram

	keptError   int64
	keptSlow    int64
	keptSticky  int64
	keptSampled int64
	dropped     int64
	evicted     int64

	spill *wal.Log[fragRec] // nil with no spill, or once it failed
}

// Open builds a store, replaying the spill log when Config.Dir is set.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	s := &Store{
		cfg:     cfg,
		byTrace: make(map[string][]*fragRec),
		routes:  make(map[string]*obs.Histogram),
	}
	if cfg.Dir == "" {
		return s, nil
	}
	spill, err := wal.Open(filepath.Join(cfg.Dir, "traces.log"), true, func(rec *fragRec) bool {
		if len(rec.Spans) == 0 {
			return false
		}
		s.insertLocked(rec)
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("trace: spill: %w", err)
	}
	// Replay does not re-count decisions, but the evicted counter from
	// over-capacity replay is real pressure and stays.
	s.spill = spill
	return s, nil
}

// Close releases the spill log.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.spill.Close()
	s.spill = nil
	return err
}

// sampleHash is the deterministic trace-ID hash behind the 1-in-N sample.
// FNV-1a over the hex ID: stable across nodes, processes and restarts.
func sampleHash(traceID string) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, traceID)
	return h.Sum64()
}

// Record runs the tail decision over one completed fragment and retains it
// when any keep rule fires. spans[0] must be the fragment root. It returns
// the decision made. Nil-safe: a nil store drops everything.
func (s *Store) Record(route string, spans []*Span) string {
	if s == nil || len(spans) == 0 {
		return DecisionDropped
	}
	root := spans[0]
	dur := time.Duration(root.DurationUS) * time.Microsecond

	s.mu.Lock()
	defer s.mu.Unlock()
	// Every fragment feeds the route's latency estimate, kept or not —
	// a sampler that only saw kept traffic would chase its own tail.
	h := s.routes[route]
	if h == nil {
		h = obs.NewHistogram()
		s.routes[route] = h
	}
	snap := h.Snapshot()
	h.Observe(dur)

	decision := DecisionDropped
	switch {
	case root.Status >= 400 || root.Error != "":
		decision = DecisionError
		s.keptError++
	// Strictly above the quantile's bucket bound: an observation inside the
	// p95 bucket itself is typical traffic, not tail.
	case snap.Count >= s.cfg.SlowMin && dur.Seconds() > snap.Quantile(s.cfg.SlowQuantile):
		decision = DecisionSlow
		s.keptSlow++
	case len(s.byTrace[root.TraceID]) > 0:
		decision = DecisionSticky
		s.keptSticky++
	case sampleHash(root.TraceID)%uint64(s.cfg.SampleN) == 0:
		decision = DecisionSampled
		s.keptSampled++
	default:
		s.dropped++
		return DecisionDropped
	}
	rec := &fragRec{TraceID: root.TraceID, Route: route, Decision: decision, Spans: spans}
	s.insertLocked(rec)
	s.spillLocked(rec)
	return decision
}

// insertLocked appends one fragment to the ring, evicting the oldest past
// capacity.
func (s *Store) insertLocked(rec *fragRec) {
	s.frags = append(s.frags, rec)
	s.byTrace[rec.TraceID] = append(s.byTrace[rec.TraceID], rec)
	for len(s.frags) > s.cfg.Capacity {
		old := s.frags[0]
		s.frags = s.frags[1:]
		s.evicted++
		peers := s.byTrace[old.TraceID]
		for i, r := range peers {
			if r == old {
				peers = append(peers[:i], peers[i+1:]...)
				break
			}
		}
		if len(peers) == 0 {
			delete(s.byTrace, old.TraceID)
		} else {
			s.byTrace[old.TraceID] = peers
		}
	}
}

// spillLocked appends one kept fragment to the spill log and compacts it
// down to the live window when it outgrows the threshold. Best effort:
// traces are diagnostics, not records, so a failed append or compaction
// drops the log rather than the request.
func (s *Store) spillLocked(rec *fragRec) {
	err := s.spill.Append(rec)
	if err == nil && s.spill.Size() > spillCompactBytes {
		err = s.spill.Compact(s.frags)
	}
	if err != nil {
		s.spill.Close()
		s.spill = nil
	}
}

// Get returns every stored span of one trace, across fragments, ordered by
// start time. Nil for an unknown trace. Nil-safe.
func (s *Store) Get(traceID string) []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Span
	for _, rec := range s.byTrace[traceID] {
		out = append(out, rec.Spans...)
	}
	SortSpans(out)
	return out
}

// SortSpans orders spans by start time in place — the presentation order of
// a span forest, also used when merging fragments fetched from peers.
func SortSpans(spans []*Span) {
	// Insertion sort: fragments are near-sorted already and span counts are
	// small.
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spans[j].Start.Before(spans[j-1].Start); j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
}

// List returns fragment summaries matching q, newest first. Nil-safe.
func (s *Store) List(q Query) []Summary {
	if s == nil {
		return nil
	}
	limit := q.Limit
	if limit <= 0 {
		limit = 50
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Summary
	for i := len(s.frags) - 1; i >= 0 && len(out) < limit; i-- {
		rec := s.frags[i]
		root := rec.Spans[0]
		if q.Route != "" && rec.Route != q.Route {
			continue
		}
		if q.Status != 0 && root.Status != q.Status {
			continue
		}
		if q.ErrorsOnly && root.Status < 400 && root.Error == "" {
			continue
		}
		if q.MinDur > 0 && time.Duration(root.DurationUS)*time.Microsecond < q.MinDur {
			continue
		}
		if q.Engine != "" && root.Attrs["engine"] != q.Engine {
			continue
		}
		if q.Order != "" && root.Attrs["order"] != q.Order {
			continue
		}
		out = append(out, Summary{
			TraceID:    rec.TraceID,
			Name:       root.Name,
			Route:      rec.Route,
			Node:       root.Node,
			Start:      root.Start,
			DurationUS: root.DurationUS,
			Status:     root.Status,
			Error:      root.Error,
			Engine:     root.Attrs["engine"],
			Order:      root.Attrs["order"],
			Decision:   rec.Decision,
			Spans:      len(rec.Spans),
		})
	}
	return out
}

// Stats snapshots the counters. Nil-safe (zero stats).
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		KeptError:   s.keptError,
		KeptSlow:    s.keptSlow,
		KeptSticky:  s.keptSticky,
		KeptSampled: s.keptSampled,
		Dropped:     s.dropped,
		Evicted:     s.evicted,
		Fragments:   int64(len(s.frags)),
		SpillBytes:  s.spill.Size(),
	}
	for _, rec := range s.frags {
		st.Spans += int64(len(rec.Spans))
	}
	return st
}
