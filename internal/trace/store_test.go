package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// testFrag builds a completed fragment's span batch: a root with the given
// outcome plus one child.
func testFrag(traceID string, status int, dur time.Duration) []*Span {
	root := &Span{
		TraceID:    traceID,
		SpanID:     NewSpanID(),
		Name:       "server.optimize",
		Node:       "n1",
		Start:      time.Now(),
		DurationUS: dur.Microseconds(),
		Status:     status,
	}
	child := &Span{
		TraceID:    traceID,
		SpanID:     NewSpanID(),
		ParentID:   root.SpanID,
		Name:       "pass.DCE",
		Node:       "n1",
		Start:      root.Start,
		DurationUS: dur.Microseconds() / 2,
	}
	return []*Span{root, child}
}

// neverSampled returns a trace ID the 1-in-n sampler rejects.
func neverSampled(t *testing.T, n uint64) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		id := NewTraceID()
		if sampleHash(id)%n != 0 {
			return id
		}
	}
	t.Fatal("no unsampled trace id found")
	return ""
}

func TestStoreKeepsAllErrors(t *testing.T) {
	s, err := Open(Config{SampleN: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		id := neverSampled(t, 1<<30)
		status := 422
		if i%2 == 0 {
			status = 500
		}
		if d := s.Record("optimize", testFrag(id, status, time.Millisecond)); d != DecisionError {
			t.Fatalf("error fragment decision = %s", d)
		}
		if got := s.Get(id); len(got) != 2 {
			t.Fatalf("error trace %s not retrievable: %d spans", id, len(got))
		}
	}
	if st := s.Stats(); st.KeptError != 50 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreKeepsSlowTail(t *testing.T) {
	s, err := Open(Config{SampleN: 1 << 30, SlowMin: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Build the route's latency estimate: plenty of ~1ms traffic.
	for i := 0; i < 200; i++ {
		s.Record("optimize", testFrag(neverSampled(t, 1<<30), 200, time.Millisecond))
	}
	// A 500ms outlier is far past p95 of that distribution.
	slow := neverSampled(t, 1<<30)
	if d := s.Record("optimize", testFrag(slow, 200, 500*time.Millisecond)); d != DecisionSlow {
		t.Fatalf("slow fragment decision = %s", d)
	}
	// Before the warmup floor, nothing on a fresh route is "slow".
	if d := s.Record("fresh", testFrag(neverSampled(t, 1<<30), 200, time.Second)); d != DecisionDropped {
		t.Fatalf("pre-warmup decision = %s", d)
	}
	st := s.Stats()
	if st.KeptSlow != 1 || st.KeptError != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreDeterministicSampling(t *testing.T) {
	const n = 4
	a, _ := Open(Config{SampleN: n})
	b, _ := Open(Config{SampleN: n})
	kept, dropped := 0, 0
	for i := 0; i < 400; i++ {
		id := NewTraceID()
		da := a.Record("optimize", testFrag(id, 200, time.Millisecond))
		db := b.Record("optimize", testFrag(id, 200, time.Millisecond))
		if da != db {
			t.Fatalf("stores disagree on %s: %s vs %s", id, da, db)
		}
		want := DecisionDropped
		if sampleHash(id)%n == 0 {
			want = DecisionSampled
		}
		if da != want {
			t.Fatalf("decision for %s = %s, want %s", id, da, want)
		}
		if da == DecisionSampled {
			kept++
		} else {
			dropped++
		}
	}
	// ~1 in 4 expected; require the split to be in a generous band.
	if kept < 50 || kept > 200 {
		t.Fatalf("kept %d of 400 at 1-in-%d", kept, n)
	}
}

func TestStoreStickyAcrossFragments(t *testing.T) {
	s, _ := Open(Config{SampleN: 1 << 30})
	id := neverSampled(t, 1<<30)
	if d := s.Record("jobs.submit", testFrag(id, 500, time.Millisecond)); d != DecisionError {
		t.Fatalf("first fragment = %s", d)
	}
	// A later unremarkable fragment of the same trace is kept sticky, so
	// the trace is never truncated mid-story.
	if d := s.Record("jobs.run", testFrag(id, 200, time.Millisecond)); d != DecisionSticky {
		t.Fatalf("second fragment = %s", d)
	}
	if got := s.Get(id); len(got) != 4 {
		t.Fatalf("trace spans = %d, want 4", len(got))
	}
}

func TestStoreBoundedMemory(t *testing.T) {
	s, _ := Open(Config{Capacity: 8, SampleN: 1})
	for i := 0; i < 100; i++ {
		s.Record("optimize", testFrag(NewTraceID(), 500, time.Millisecond))
	}
	st := s.Stats()
	if st.Fragments != 8 || st.Evicted != 92 || st.Spans != 16 {
		t.Fatalf("stats = %+v, want 8 live / 92 evicted / 16 spans", st)
	}
	if got := s.List(Query{Limit: 1000}); len(got) != 8 {
		t.Fatalf("list = %d fragments", len(got))
	}
}

func TestStoreListFilters(t *testing.T) {
	s, _ := Open(Config{SampleN: 1})
	okID, errID, slowID := NewTraceID(), NewTraceID(), NewTraceID()
	ok := testFrag(okID, 200, time.Millisecond)
	ok[0].Attrs = map[string]string{"engine": "interp", "order": "default"}
	s.Record("optimize", ok)
	s.Record("optimize", testFrag(errID, 422, time.Millisecond))
	s.Record("jobs.run", testFrag(slowID, 200, 300*time.Millisecond))

	if got := s.List(Query{Route: "optimize"}); len(got) != 2 {
		t.Fatalf("route filter = %d", len(got))
	}
	if got := s.List(Query{ErrorsOnly: true}); len(got) != 1 || got[0].TraceID != errID {
		t.Fatalf("errors filter = %+v", got)
	}
	if got := s.List(Query{Status: 422}); len(got) != 1 || got[0].Status != 422 {
		t.Fatalf("status filter = %+v", got)
	}
	if got := s.List(Query{MinDur: 100 * time.Millisecond}); len(got) != 1 || got[0].TraceID != slowID {
		t.Fatalf("min-duration filter = %+v", got)
	}
	if got := s.List(Query{Engine: "interp"}); len(got) != 1 || got[0].TraceID != okID {
		t.Fatalf("engine filter = %+v", got)
	}
	if got := s.List(Query{Order: "default"}); len(got) != 1 || got[0].Order != "default" {
		t.Fatalf("order filter = %+v", got)
	}
	// Newest first.
	if got := s.List(Query{}); len(got) != 3 || got[0].TraceID != slowID {
		t.Fatalf("unfiltered list order = %+v", got)
	}
}

func TestStoreSpillReplayAndTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{SampleN: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 5)
	for i := range ids {
		ids[i] = NewTraceID()
		s.Record("optimize", testFrag(ids[i], 200, time.Millisecond))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash mid-append leaves a torn frame; replay must truncate it away
	// and keep every whole record.
	logPath := filepath.Join(dir, "traces.log")
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := Open(Config{SampleN: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, id := range ids {
		if got := r.Get(id); len(got) != 2 {
			t.Fatalf("replayed trace %s = %d spans, want 2", id, len(got))
		}
	}
	st := r.Stats()
	if st.Fragments != 5 {
		t.Fatalf("replayed fragments = %d, want 5", st.Fragments)
	}
	// Replay rebuilt state, not history: decision counters start at zero.
	if st.KeptSampled != 0 || st.KeptError != 0 {
		t.Fatalf("replay re-counted decisions: %+v", st)
	}
	// The torn tail was truncated on open.
	if fi, err := os.Stat(logPath); err != nil || fi.Size() != st.SpillBytes {
		t.Fatalf("log size %v vs spill bytes %d (err %v)", fi.Size(), st.SpillBytes, err)
	}
}

func TestStoreConcurrentRecordAndRead(t *testing.T) {
	s, _ := Open(Config{Capacity: 64, SampleN: 2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Record(fmt.Sprintf("route%d", g%2), testFrag(NewTraceID(), 200, time.Millisecond))
				if i%10 == 0 {
					s.List(Query{})
					s.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Fragments > 64 {
		t.Fatalf("capacity exceeded: %d", st.Fragments)
	}
	total := st.KeptSampled + st.KeptSticky + st.KeptSlow + st.KeptError + st.Dropped
	if total != 1600 {
		t.Fatalf("decisions = %d, want 1600", total)
	}
}

// TestStoreSpillCompaction drives the spill log past spillCompactBytes: the
// compaction rewrites it to the live window, so a reopen replays exactly
// that window. A compaction that cannot run stops the spill instead of
// rewriting the whole window again on every later fragment.
func TestStoreSpillCompaction(t *testing.T) {
	bulk := strings.Repeat("x", 32<<10)
	fill := func(t *testing.T, s *Store) (written int64) {
		t.Helper()
		for written <= spillCompactBytes+(1<<20) {
			spans := testFrag(NewTraceID(), 200, time.Millisecond)
			spans[0].Set("bulk", bulk)
			s.Record("optimize", spans)
			written += int64(len(bulk))
		}
		return written
	}
	ids := func(s *Store) []string {
		var out []string
		for _, sum := range s.List(Query{Limit: 1000}) {
			out = append(out, sum.TraceID)
		}
		return out
	}
	logSize := func(t *testing.T, path string) int64 {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}

	t.Run("replays live window", func(t *testing.T) {
		dir := t.TempDir()
		cfg := Config{Capacity: 8, SampleN: 1, Dir: dir}
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		written := fill(t, s)
		live, st := ids(s), s.Stats()
		if st.SpillBytes == 0 || st.SpillBytes >= written/2 {
			t.Fatalf("spill bytes %d after writing %d: no compaction", st.SpillBytes, written)
		}
		if size := logSize(t, filepath.Join(dir, "traces.log")); size != st.SpillBytes {
			t.Fatalf("log size %d, spill bytes %d", size, st.SpillBytes)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if got := ids(r); fmt.Sprint(got) != fmt.Sprint(live) || len(got) != cfg.Capacity {
			t.Fatalf("replayed window %v, live window %v", got, live)
		}
	})

	t.Run("failed compaction stops the spill", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, "traces.log.compact"), 0o755); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Config{Capacity: 8, SampleN: 1, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		fill(t, s)
		st := s.Stats()
		if st.SpillBytes != 0 {
			t.Fatalf("spill bytes %d after a failed compaction, want 0", st.SpillBytes)
		}
		if st.Fragments != 8 {
			t.Fatalf("live window %d fragments, want 8", st.Fragments)
		}
		path := filepath.Join(dir, "traces.log")
		before := logSize(t, path)
		s.Record("optimize", testFrag(NewTraceID(), 500, time.Millisecond))
		if after := logSize(t, path); after != before {
			t.Fatalf("stopped spill still written: %d -> %d bytes", before, after)
		}
	})
}
