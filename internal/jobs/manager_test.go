package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testRunner scripts attempt outcomes by idempotency key (so tests can
// install the script before submitting) and records every (job, attempt)
// pair it executes.
type testRunner struct {
	mu       sync.Mutex
	attempts []string // "id/attempt" in execution order
	fail     map[string]int
	perm     map[string]bool
	block    map[string]chan struct{} // runner waits here until closed
	started  chan string              // receives job ID at attempt start
}

func newTestRunner() *testRunner {
	return &testRunner{
		fail:    map[string]int{},
		perm:    map[string]bool{},
		block:   map[string]chan struct{}{},
		started: make(chan string, 64),
	}
}

func (r *testRunner) run(ctx context.Context, j *Job) (json.RawMessage, error) {
	r.mu.Lock()
	r.attempts = append(r.attempts, fmt.Sprintf("%s/%d", j.ID, j.Attempts))
	failures := r.fail[j.Key]
	if failures > 0 {
		r.fail[j.Key] = failures - 1
	}
	perm := r.perm[j.Key]
	blocker := r.block[j.Key]
	r.mu.Unlock()
	select {
	case r.started <- j.ID:
	default:
	}
	if blocker != nil {
		select {
		case <-blocker:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if perm {
		return nil, Permanent(errors.New("unfixable"))
	}
	if failures > 0 {
		return nil, errors.New("transient")
	}
	return json.RawMessage(fmt.Sprintf(`{"echo":%q}`, j.ID)), nil
}

func (r *testRunner) attemptList() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.attempts...)
}

func fastCfg(dir string) Config {
	return Config{
		Dir:        dir,
		Workers:    2,
		MaxRetries: 2,
		RetryBase:  2 * time.Millisecond,
		RetryCap:   10 * time.Millisecond,
	}
}

func waitState(t *testing.T, m *Manager, id string, want State) *Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if want.Terminal() {
		j, err := m.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if j.State != want {
			t.Fatalf("job %s finished %s (last error %q), want %s", id, j.State, j.LastError, want)
		}
		return j
	}
	for {
		j, ok := m.Get(id)
		if ok && j.State == want {
			return j
		}
		select {
		case <-ctx.Done():
			t.Fatalf("job %s never reached %s", id, want)
		case <-time.After(time.Millisecond):
		}
	}
}

func TestSubmitRunsToDone(t *testing.T) {
	r := newTestRunner()
	m, err := New(r.run, fastCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	j, existing, err := m.Submit(SubmitRequest{Key: "k1", Payload: []byte(`{}`), MaxRetries: -1})
	if err != nil || existing {
		t.Fatalf("submit: %v existing=%v", err, existing)
	}
	fin := waitState(t, m, j.ID, StateDone)
	if fin.Attempts != 1 || len(fin.Result) == 0 {
		t.Fatalf("done job: attempts=%d result=%s", fin.Attempts, fin.Result)
	}
	if fin.FinishedAt.Before(fin.SubmittedAt) {
		t.Fatalf("bad timestamps: %v vs %v", fin.SubmittedAt, fin.FinishedAt)
	}
}

func TestRetryBackoffThenSuccess(t *testing.T) {
	r := newTestRunner()
	r.fail["k"] = 2 // first two attempts fail, third succeeds
	var retried atomic.Int64
	cfg := fastCfg(t.TempDir())
	cfg.Obs.Retried = func() { retried.Add(1) }
	m, err := New(r.run, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	j, _, err := m.Submit(SubmitRequest{Key: "k", Payload: []byte(`{}`), MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, m, j.ID, StateDone)
	if fin.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", fin.Attempts)
	}
	if got := retried.Load(); got != 2 {
		t.Fatalf("retried callback = %d, want 2", got)
	}
	// Attempt numbers must be unique and ordered: no attempt re-executed.
	want := []string{j.ID + "/1", j.ID + "/2", j.ID + "/3"}
	got := r.attemptList()
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("attempts = %v, want %v", got, want)
	}
}

func TestRetriesExhausted(t *testing.T) {
	r := newTestRunner()
	r.fail["k"] = 99
	m, err := New(r.run, fastCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	j, _, err := m.Submit(SubmitRequest{Key: "k", Payload: []byte(`{}`), MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, m, j.ID, StateFailed)
	if fin.Attempts != 2 { // 1 initial + 1 retry
		t.Fatalf("attempts = %d, want 2", fin.Attempts)
	}
	if fin.LastError == "" {
		t.Fatal("failed job carries no error")
	}
}

func TestPermanentErrorSkipsRetries(t *testing.T) {
	r := newTestRunner()
	r.perm["k"] = true
	m, err := New(r.run, fastCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	j, _, err := m.Submit(SubmitRequest{Key: "k", Payload: []byte(`{}`), MaxRetries: 5})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, m, j.ID, StateFailed)
	if fin.Attempts != 1 {
		t.Fatalf("permanent error retried: attempts = %d", fin.Attempts)
	}
}

func TestIdempotentResubmission(t *testing.T) {
	r := newTestRunner()
	m, err := New(r.run, fastCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	j1, existing, err := m.Submit(SubmitRequest{Key: "same", Payload: []byte(`{}`), MaxRetries: -1})
	if err != nil || existing {
		t.Fatalf("first submit: %v existing=%v", err, existing)
	}
	j2, existing, err := m.Submit(SubmitRequest{Key: "same", Payload: []byte(`{}`), MaxRetries: -1})
	if err != nil || !existing {
		t.Fatalf("resubmit: %v existing=%v", err, existing)
	}
	if j2.ID != j1.ID {
		t.Fatalf("resubmit created new job %s != %s", j2.ID, j1.ID)
	}
	waitState(t, m, j1.ID, StateDone)
	// Resubmitting after completion returns the finished job with result.
	j3, existing, err := m.Submit(SubmitRequest{Key: "same", Payload: []byte(`{}`), MaxRetries: -1})
	if err != nil || !existing || j3.ID != j1.ID || j3.State != StateDone || len(j3.Result) == 0 {
		t.Fatalf("post-done resubmit: %v existing=%v state=%s", err, existing, j3.State)
	}
	// Only one attempt ever ran.
	if got := r.attemptList(); len(got) != 1 {
		t.Fatalf("dedup ran %d attempts: %v", len(got), got)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	r := newTestRunner()
	blocker := make(chan struct{})
	r.block["first"] = blocker
	cfg := fastCfg(t.TempDir())
	cfg.Workers = 1
	m, err := New(r.run, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	// Block the single worker with the first job.
	first, _, err := m.Submit(SubmitRequest{Key: "first", Payload: []byte(`{}`), MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	<-r.started // first job is now running
	second, _, err := m.Submit(SubmitRequest{Key: "second", Payload: []byte(`{}`), MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Cancel(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("queued cancel = %s, want cancelled immediately", got.State)
	}
	close(blocker)
	waitState(t, m, first.ID, StateDone)
	// The cancelled job never ran.
	for _, a := range r.attemptList() {
		if a == second.ID+"/1" {
			t.Fatal("cancelled queued job was executed")
		}
	}
	// Cancelling a terminal job reports ErrTerminal.
	if _, err := m.Cancel(second.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("re-cancel = %v, want ErrTerminal", err)
	}
}

func TestCancelRunningJob(t *testing.T) {
	r := newTestRunner()
	blocker := make(chan struct{})
	defer close(blocker)
	r.block["block"] = blocker
	m, err := New(r.run, fastCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	j, _, err := m.Submit(SubmitRequest{Key: "block", Payload: []byte(`{}`), MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	<-r.started
	snap, err := m.Cancel(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateRunning {
		t.Fatalf("running cancel snapshot = %s", snap.State)
	}
	fin := waitState(t, m, j.ID, StateCancelled)
	if fin.Attempts != 1 {
		t.Fatalf("cancelled job attempts = %d", fin.Attempts)
	}
}

func TestPriorityOrdering(t *testing.T) {
	r := newTestRunner()
	blocker := make(chan struct{})
	r.block["gate"] = blocker
	cfg := fastCfg(t.TempDir())
	cfg.Workers = 1
	m, err := New(r.run, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	gate, _, err := m.Submit(SubmitRequest{Key: "gate", Payload: []byte(`{}`), MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	<-r.started
	low, _, _ := m.Submit(SubmitRequest{Key: "low", Payload: []byte(`{}`), Priority: PriorityLow, MaxRetries: -1})
	norm, _, _ := m.Submit(SubmitRequest{Key: "norm", Payload: []byte(`{}`), Priority: PriorityNormal, MaxRetries: -1})
	high, _, _ := m.Submit(SubmitRequest{Key: "high", Payload: []byte(`{}`), Priority: PriorityHigh, MaxRetries: -1})
	close(blocker)
	waitState(t, m, low.ID, StateDone)
	waitState(t, m, norm.ID, StateDone)
	waitState(t, m, high.ID, StateDone)
	got := r.attemptList()
	want := []string{gate.ID + "/1", high.ID + "/1", norm.ID + "/1", low.ID + "/1"}
	if len(got) != len(want) {
		t.Fatalf("attempts = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", got, want)
		}
	}
}

func TestJobDeadline(t *testing.T) {
	r := newTestRunner()
	blocker := make(chan struct{})
	defer close(blocker)
	r.block["dl"] = blocker
	m, err := New(r.run, fastCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	j, _, err := m.Submit(SubmitRequest{
		Key: "dl", Payload: []byte(`{}`), MaxRetries: -1,
		Deadline: time.Now().Add(30 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, m, j.ID, StateFailed)
	if fin.LastError == "" {
		t.Fatal("deadline failure carries no error")
	}
}

func TestDrainRequeuesAndRestartCompletes(t *testing.T) {
	dir := t.TempDir()
	r := newTestRunner()
	blocker := make(chan struct{}) // never closed: drain interrupts it
	r.block["first"] = blocker
	cfg := fastCfg(dir)
	cfg.Workers = 1
	m, err := New(r.run, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := m.Submit(SubmitRequest{Key: "first", Payload: []byte(`{}`), MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	<-r.started
	second, _, err := m.Submit(SubmitRequest{Key: "second", Payload: []byte(`{}`), MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := m.Close(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	cancel()
	// After drain, submissions are refused.
	if _, _, err := m.Submit(SubmitRequest{Payload: []byte(`{}`), MaxRetries: -1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit = %v, want ErrClosed", err)
	}

	// Restart over the same WAL: both jobs must complete; the interrupted
	// job re-runs under a fresh attempt number.
	r2 := newTestRunner()
	m2, err := New(r2.run, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())
	f1 := waitState(t, m2, first.ID, StateDone)
	f2 := waitState(t, m2, second.ID, StateDone)
	if f1.Attempts != 2 {
		t.Fatalf("interrupted job attempts = %d, want 2 (1 pre-drain + 1 re-run)", f1.Attempts)
	}
	if f2.Attempts != 1 {
		t.Fatalf("queued job attempts = %d, want 1", f2.Attempts)
	}
	// No (job, attempt) pair executed twice across both processes.
	seen := map[string]bool{}
	for _, a := range append(r.attemptList(), r2.attemptList()...) {
		if seen[a] {
			t.Fatalf("attempt %s executed twice", a)
		}
		seen[a] = true
	}
}

func TestCrashRecoveryFromRunningState(t *testing.T) {
	// Simulate a kill -9: hand-craft a WAL whose last record says
	// "running" (the crash cut the process before any terminal record).
	dir := t.TempDir()
	w, _, err := OpenWAL(dir+"/jobs.wal", false)
	if err != nil {
		t.Fatal(err)
	}
	j := walJob("crashed", 5, StateQueued)
	j.Key = "crash-key"
	if err := w.Append(j); err != nil {
		t.Fatal(err)
	}
	j.State = StateRunning
	j.Attempts = 1
	j.StartedAt = time.Now()
	if err := w.Append(j); err != nil {
		t.Fatal(err)
	}
	w.Close()

	r := newTestRunner()
	m, err := New(r.run, fastCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	fin := waitState(t, m, "crashed", StateDone)
	if fin.Attempts != 2 {
		t.Fatalf("recovered job attempts = %d, want 2", fin.Attempts)
	}
	if got := r.attemptList(); len(got) != 1 || got[0] != "crashed/2" {
		t.Fatalf("recovery ran %v, want [crashed/2]", got)
	}
}

func TestListPagination(t *testing.T) {
	r := newTestRunner()
	m, err := New(r.run, Config{Workers: 4, MaxRetries: -1, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	var ids []string
	for i := 0; i < 7; i++ {
		j, _, err := m.Submit(SubmitRequest{Key: fmt.Sprintf("k%d", i), Payload: []byte(`{}`), MaxRetries: -1})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		waitState(t, m, id, StateDone)
	}
	page1, next := m.List("", 3, 0)
	if len(page1) != 3 || next == 0 {
		t.Fatalf("page1 = %d jobs next=%d", len(page1), next)
	}
	page2, next2 := m.List("", 3, next)
	if len(page2) != 3 || next2 == 0 {
		t.Fatalf("page2 = %d jobs next=%d", len(page2), next2)
	}
	page3, next3 := m.List("", 3, next2)
	if len(page3) != 1 || next3 != 0 {
		t.Fatalf("page3 = %d jobs next=%d", len(page3), next3)
	}
	seen := map[string]bool{}
	for _, j := range append(append(page1, page2...), page3...) {
		if seen[j.ID] {
			t.Fatalf("job %s appears twice across pages", j.ID)
		}
		seen[j.ID] = true
	}
	if len(seen) != 7 {
		t.Fatalf("pagination covered %d of 7 jobs", len(seen))
	}
	done, _ := m.List(StateDone, 50, 0)
	if len(done) != 7 {
		t.Fatalf("state filter: %d done jobs", len(done))
	}
	none, _ := m.List(StateFailed, 50, 0)
	if len(none) != 0 {
		t.Fatalf("state filter: %d failed jobs", len(none))
	}
}

func TestTerminalRetention(t *testing.T) {
	r := newTestRunner()
	cfg := Config{Workers: 2, MaxRetries: -1, KeepTerminal: 3, RetryBase: time.Millisecond}
	m, err := New(r.run, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	var ids []string
	for i := 0; i < 8; i++ {
		j, _, err := m.Submit(SubmitRequest{Key: fmt.Sprintf("r%d", i), Payload: []byte(`{}`), MaxRetries: -1})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
		waitState(t, m, j.ID, StateDone)
	}
	all, _ := m.List("", 50, 0)
	if len(all) > 3 {
		t.Fatalf("retention kept %d terminal jobs, cap 3", len(all))
	}
	// The newest jobs survive.
	if _, ok := m.Get(ids[len(ids)-1]); !ok {
		t.Fatal("newest job evicted")
	}
}

func TestMemoryModeNoDir(t *testing.T) {
	r := newTestRunner()
	m, err := New(r.run, Config{Workers: 1, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	j, _, err := m.Submit(SubmitRequest{Payload: []byte(`{}`), MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, StateDone)
}

func TestObsCallbacks(t *testing.T) {
	r := newTestRunner()
	r.fail["k"] = 1
	var submitted, deduped, finished atomic.Int64
	var transitions atomic.Int64
	cfg := fastCfg(t.TempDir())
	cfg.Obs = Obs{
		Submitted: func(d bool) {
			if d {
				deduped.Add(1)
			} else {
				submitted.Add(1)
			}
		},
		StateChange: func(from, to State) { transitions.Add(1) },
		Finished: func(final State, latency time.Duration) {
			if final == StateDone && latency >= 0 {
				finished.Add(1)
			}
		},
	}
	m, err := New(r.run, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	j, _, err := m.Submit(SubmitRequest{Key: "k", Payload: []byte(`{}`), MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, StateDone)
	if _, _, err := m.Submit(SubmitRequest{Key: "k", Payload: []byte(`{}`), MaxRetries: -1}); err != nil {
		t.Fatal(err)
	}
	if submitted.Load() != 1 || deduped.Load() != 1 || finished.Load() != 1 {
		t.Fatalf("obs: submitted=%d deduped=%d finished=%d",
			submitted.Load(), deduped.Load(), finished.Load())
	}
	// "" -> queued, queued -> running, running -> queued (retry),
	// queued -> running, running -> done.
	if transitions.Load() != 5 {
		t.Fatalf("transitions = %d, want 5", transitions.Load())
	}
}

// TestExplicitIDSubmission covers owner-aware submission: the caller fixes
// the job ID (derived from the content key in the sharded server), a live
// holder under another key rejects, and a cancelled holder is superseded in
// place — including across a WAL restart.
func TestExplicitIDSubmission(t *testing.T) {
	dir := t.TempDir()
	r := newTestRunner()
	r.block["k1"] = make(chan struct{})
	m, err := New(r.run, fastCfg(dir))
	if err != nil {
		t.Fatal(err)
	}

	j, existing, err := m.Submit(SubmitRequest{ID: "deadbeefdeadbeefdeadbeef", Key: "k1", MaxRetries: -1})
	if err != nil || existing {
		t.Fatalf("submit = %v existing=%v", err, existing)
	}
	if j.ID != "deadbeefdeadbeefdeadbeef" {
		t.Fatalf("ID = %s, want the explicit one", j.ID)
	}

	// Same key dedups (and keeps the ID) regardless of the requested ID.
	j2, existing, err := m.Submit(SubmitRequest{ID: "deadbeefdeadbeefdeadbeef", Key: "k1", MaxRetries: -1})
	if err != nil || !existing || j2.ID != j.ID {
		t.Fatalf("resubmit = %v existing=%v id=%s", err, existing, j2.ID)
	}

	// A different key claiming a live job's ID is a collision.
	if _, _, err := m.Submit(SubmitRequest{ID: j.ID, Key: "k2", MaxRetries: -1}); !errors.Is(err, ErrIDInUse) {
		t.Fatalf("collision err = %v, want ErrIDInUse", err)
	}

	// Cancel, then resubmit under the same key and ID: the cancelled
	// holder is superseded, not an error and not a dedup hit.
	close(r.block["k1"])
	if _, err := m.Cancel(j.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if w, err := m.Wait(ctx, j.ID); err == nil && !w.State.Terminal() {
		t.Fatalf("job not terminal after cancel: %s", w.State)
	}
	delete(r.block, "k1")
	j3, existing, err := m.Submit(SubmitRequest{ID: j.ID, Key: "k1", MaxRetries: -1})
	if err != nil || existing {
		t.Fatalf("takeover submit = %v existing=%v", err, existing)
	}
	if j3.ID != j.ID || j3.Seq == j.Seq {
		t.Fatalf("takeover job = id %s seq %d, want same id, fresh seq (was %d)", j3.ID, j3.Seq, j.Seq)
	}
	waitState(t, m, j3.ID, StateDone)
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Restart over the same WAL: the takeover record must have superseded
	// the cancelled one.
	m2, err := New(r.run, fastCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())
	got, ok := m2.Get(j.ID)
	if !ok || got.State != StateDone || got.Seq != j3.Seq {
		t.Fatalf("after replay: job %s = %+v, want done at seq %d", j.ID, got, j3.Seq)
	}
}

// TestCompactionFailureKeepsAcceptedJobs: a compaction that fails after a
// submission's record is already in the log must not refuse the job — the
// record would bring it back after a restart. With KeepTerminal 1 the
// append count outgrows 64+4*len(jobs), so compactions keep firing; a
// directory squatting on the temp path makes every one of them fail.
func TestCompactionFailureKeepsAcceptedJobs(t *testing.T) {
	dir := t.TempDir()
	r := newTestRunner()
	cfg := fastCfg(dir)
	cfg.KeepTerminal = 1
	cfg.NoSync = true
	m, err := New(r.run, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	appends := func() int {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.wal.Appends()
	}
	submit := func(i int) string {
		t.Helper()
		j, _, err := m.Submit(SubmitRequest{Key: fmt.Sprint("k", i), Payload: []byte(`{}`), MaxRetries: -1})
		if err != nil {
			t.Fatalf("submit %d refused: %v", i, err)
		}
		if _, err := m.Wait(ctx, j.ID); err != nil {
			t.Fatal(err)
		}
		return j.ID
	}
	// Run jobs until a compaction resets the append count.
	i := 0
	for prev := appends(); ; i++ {
		if i > 1000 {
			t.Fatal("no compaction after 1000 jobs")
		}
		submit(i)
		n := appends()
		if n < prev {
			break
		}
		prev = n
	}
	blocker := filepath.Join(dir, "jobs.wal.compact")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	var accepted []string
	for end := i + 100; i < end; i++ {
		accepted = append(accepted, submit(i))
	}
	if n := appends(); n < 2*100 {
		t.Fatalf("append count %d: a compaction succeeded past the blocker", n)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	w, records, err := OpenWAL(filepath.Join(dir, "jobs.wal"), true)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	logged := map[string]bool{}
	for _, j := range records {
		logged[j.ID] = true
	}
	for _, id := range accepted {
		if !logged[id] {
			t.Fatalf("accepted job %s missing from the log", id)
		}
	}
}
