package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/par"
)

// Runner executes one job attempt. It must honour ctx — cancellation is how
// both job cancel and graceful drain interrupt a running job. A nil error
// completes the job with result; an error marked Permanent fails it
// immediately; any other error consumes a retry.
type Runner func(ctx context.Context, j *Job) (json.RawMessage, error)

// Obs is the manager's observability surface: optional callbacks invoked
// under the manager lock (keep them cheap — counter bumps, histogram
// observes). from is "" for a freshly submitted job.
type Obs struct {
	StateChange func(from, to State)
	Submitted   func(deduped bool)
	Retried     func()
	// Finished fires once per job reaching a terminal state, with the
	// enqueue→terminal latency.
	Finished func(final State, latency time.Duration)
	// Completed fires once per job reaching StateDone, with the job
	// snapshot (Payload and Result populated). Like every Obs callback it
	// runs under the manager lock: consumers must only enqueue — the
	// advisor harvest hands the snapshot to a worker goroutine.
	Completed func(j *Job)
}

// Config tunes a Manager. The zero value selects an in-memory (non-durable)
// queue with production defaults.
type Config struct {
	// Dir holds the write-ahead log; empty selects a memory-only queue
	// (state does not survive restart — tests and ephemeral servers).
	Dir string
	// Workers bounds concurrently running jobs; <1 selects GOMAXPROCS.
	Workers int
	// MaxRetries is the default re-run budget after a job's first attempt;
	// negative selects 2. Per-job values override it.
	MaxRetries int
	// RetryBase and RetryCap shape the exponential backoff (defaults
	// 250ms and 30s).
	RetryBase time.Duration
	RetryCap  time.Duration
	// Timeout bounds each attempt; 0 means only per-job deadlines apply.
	Timeout time.Duration
	// KeepTerminal bounds retained finished jobs (results live there);
	// <1 selects 1024. The oldest terminal jobs are evicted first.
	KeepTerminal int
	// NoSync skips the per-append fsync (benchmarks only).
	NoSync bool
	// Obs receives lifecycle callbacks.
	Obs Obs
}

func (c Config) withDefaults() Config {
	if c.MaxRetries < 0 {
		c.MaxRetries = 2
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 250 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 30 * time.Second
	}
	if c.KeepTerminal < 1 {
		c.KeepTerminal = 1024
	}
	return c
}

// Manager owns the job table, the WAL and the worker pool. All mutation
// goes through its lock; the WAL is appended to under that lock so the log
// order equals the state-transition order.
type Manager struct {
	cfg     Config
	runner  Runner
	limiter *par.Limiter

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu        sync.Mutex
	wal       *WAL
	jobs      map[string]*Job
	byKey     map[string]string // idempotency key → job ID
	doneCh    map[string]chan struct{}
	cancelReq map[string]bool
	running   map[string]context.CancelFunc
	nextSeq   uint64
	closed    bool

	wake           chan struct{}
	dispatcherDone chan struct{}
	wg             sync.WaitGroup // running job goroutines
}

// New opens (and replays) the WAL under cfg.Dir, requeues jobs that were
// running at crash time, and starts the dispatcher.
func New(runner Runner, cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:            cfg,
		runner:         runner,
		limiter:        par.NewLimiter(cfg.Workers),
		jobs:           map[string]*Job{},
		byKey:          map[string]string{},
		doneCh:         map[string]chan struct{}{},
		cancelReq:      map[string]bool{},
		running:        map[string]context.CancelFunc{},
		wake:           make(chan struct{}, 1),
		dispatcherDone: make(chan struct{}),
	}
	m.baseCtx, m.baseCancel = context.WithCancel(context.Background())
	if cfg.Dir != "" {
		wal, records, err := OpenWAL(filepath.Join(cfg.Dir, "jobs.wal"), cfg.NoSync)
		if err != nil {
			return nil, err
		}
		m.wal = wal
		for _, j := range records { // latest record per job wins
			m.jobs[j.ID] = j
		}
		for _, j := range m.jobs {
			if j.Seq >= m.nextSeq {
				m.nextSeq = j.Seq + 1
			}
			// A job caught mid-run by the crash goes back to queued; its
			// attempt counter stays, so the re-run is a fresh attempt
			// number and no attempt's action phase ever executes twice.
			if j.State == StateRunning {
				j.State = StateQueued
				j.NextRunAt = time.Time{}
			}
			if !j.Terminal() {
				m.doneCh[j.ID] = make(chan struct{})
			}
			if prev, ok := m.byKey[j.Key]; !ok || m.jobs[prev].Seq < j.Seq {
				m.byKey[j.Key] = j.ID
			}
		}
		// Startup compaction: the replayed log may carry one record per
		// historical transition; rewrite it as one per live job.
		if err := m.compactLocked(); err != nil {
			wal.Close()
			return nil, err
		}
	}
	go m.dispatch()
	return m, nil
}

// compactLocked rewrites the WAL from the in-memory table (mu held or
// manager not yet shared).
func (m *Manager) compactLocked() error {
	if m.wal == nil {
		return nil
	}
	live := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		live = append(live, j)
	}
	sort.Slice(live, func(a, b int) bool { return live[a].Seq < live[b].Seq })
	return m.wal.Compact(live)
}

// appendLocked journals j's current state (mu held). Append failures are
// surfaced to submitters but tolerated on internal transitions: the
// in-memory state machine keeps going and the next successful append or
// compaction re-establishes durability. A failed compaction is not the
// record's failure — j is already durable — and leaves the append count
// above the threshold, so the next append retries it.
func (m *Manager) appendLocked(j *Job) error {
	if err := m.wal.Append(j); err != nil {
		return err
	}
	if m.wal.Appends() > 64+4*len(m.jobs) {
		_ = m.compactLocked()
	}
	return nil
}

// transitionLocked moves j to state, journals it, and fires observability
// callbacks (mu held).
func (m *Manager) transitionLocked(j *Job, to State) {
	from := j.State
	j.State = to
	_ = m.appendLocked(j)
	if m.cfg.Obs.StateChange != nil {
		m.cfg.Obs.StateChange(from, to)
	}
	if to.Terminal() {
		j.FinishedAt = time.Now()
		if ch, ok := m.doneCh[j.ID]; ok {
			close(ch)
			delete(m.doneCh, j.ID)
		}
		delete(m.cancelReq, j.ID)
		if m.cfg.Obs.Finished != nil {
			m.cfg.Obs.Finished(to, j.FinishedAt.Sub(j.SubmittedAt))
		}
		if to == StateDone && m.cfg.Obs.Completed != nil {
			m.cfg.Obs.Completed(j.clone())
		}
		m.evictTerminalLocked()
	}
}

// evictTerminalLocked enforces the terminal-job retention bound (mu held).
func (m *Manager) evictTerminalLocked() {
	var term []*Job
	for _, j := range m.jobs {
		if j.Terminal() {
			term = append(term, j)
		}
	}
	if len(term) <= m.cfg.KeepTerminal {
		return
	}
	sort.Slice(term, func(a, b int) bool { return term[a].Seq < term[b].Seq })
	for _, j := range term[:len(term)-m.cfg.KeepTerminal] {
		delete(m.jobs, j.ID)
		if m.byKey[j.Key] == j.ID {
			delete(m.byKey, j.Key)
		}
	}
}

func newJobID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: id entropy unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// SubmitRequest describes one job submission.
type SubmitRequest struct {
	// ID, when non-empty, fixes the new job's identity; "" selects a
	// random one. Owner-aware submission derives the ID from the content
	// key, so every node of a sharded deployment maps the ID to the same
	// owner. An ID held by a live (non-terminal) job under a different key
	// rejects the submission with ErrIDInUse; a cancelled holder is
	// superseded in place.
	ID string
	// Key is the idempotency key; "" disables deduplication.
	Key      string
	Payload  json.RawMessage
	Priority Priority
	// MaxRetries overrides the manager default when >= 0.
	MaxRetries int
	// Deadline, when non-zero, fails the job once passed.
	Deadline time.Time
	// TraceID and TraceParent are the submitter's distributed-trace context
	// (see Job); empty on untraced submissions.
	TraceID     string
	TraceParent string
}

// Submit enqueues a job (or returns the existing one for a known key;
// existing is true in that case). Cancelled jobs do not block
// resubmission: a new job is queued and takes over the key.
func (m *Manager) Submit(req SubmitRequest) (j *Job, existing bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, false, ErrClosed
	}
	if req.Key != "" {
		if id, ok := m.byKey[req.Key]; ok {
			if prior := m.jobs[id]; prior != nil && prior.State != StateCancelled {
				if m.cfg.Obs.Submitted != nil {
					m.cfg.Obs.Submitted(true)
				}
				return prior.clone(), true, nil
			}
		}
	}
	id := req.ID
	if id == "" {
		id = newJobID()
	}
	if prior := m.jobs[id]; prior != nil {
		// A deterministic (content-derived) ID can legitimately collide
		// with a terminal holder: a cancelled job does not dedup by key
		// (resubmission is allowed to take the key over), and done/failed
		// holders were already returned by the key check above. The new
		// record supersedes the old one in place — the WAL's full-record
		// upsert makes replay agree.
		if !prior.Terminal() {
			return nil, false, fmt.Errorf("%w: job %s is %s", ErrIDInUse, id, prior.State)
		}
		if m.byKey[prior.Key] == prior.ID {
			delete(m.byKey, prior.Key)
		}
	}
	retries := m.cfg.MaxRetries
	if req.MaxRetries >= 0 {
		retries = req.MaxRetries
	}
	nj := &Job{
		ID:          id,
		Seq:         m.nextSeq,
		Key:         req.Key,
		Payload:     req.Payload,
		Priority:    req.Priority,
		State:       StateQueued,
		MaxRetries:  retries,
		SubmittedAt: time.Now(),
		Deadline:    req.Deadline,
		TraceID:     req.TraceID,
		TraceParent: req.TraceParent,
	}
	m.nextSeq++
	m.jobs[nj.ID] = nj
	if nj.Key != "" {
		m.byKey[nj.Key] = nj.ID
	}
	m.doneCh[nj.ID] = make(chan struct{})
	if err := m.appendLocked(nj); err != nil {
		// Could not make the accepted job durable: refuse it.
		delete(m.jobs, nj.ID)
		if nj.Key != "" {
			delete(m.byKey, nj.Key)
		}
		delete(m.doneCh, nj.ID)
		return nil, false, err
	}
	if m.cfg.Obs.Submitted != nil {
		m.cfg.Obs.Submitted(false)
	}
	if m.cfg.Obs.StateChange != nil {
		m.cfg.Obs.StateChange("", StateQueued)
	}
	m.signal()
	return nj.clone(), false, nil
}

// Get returns a snapshot of the job.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, false
	}
	return j.clone(), true
}

// List returns up to limit jobs newest-first, optionally filtered by
// state, starting strictly below beforeSeq (0 means from the newest). The
// returned next cursor is non-zero when more jobs remain.
func (m *Manager) List(state State, limit int, beforeSeq uint64) (page []*Job, next uint64) {
	if limit < 1 {
		limit = 50
	}
	m.mu.Lock()
	all := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		if state != "" && j.State != state {
			continue
		}
		if beforeSeq != 0 && j.Seq >= beforeSeq {
			continue
		}
		all = append(all, j.clone())
	}
	m.mu.Unlock()
	sort.Slice(all, func(a, b int) bool { return all[a].Seq > all[b].Seq })
	if len(all) > limit {
		// Cursor is the last returned job's Seq; the next page continues
		// strictly below it.
		return all[:limit], all[limit-1].Seq
	}
	return all, 0
}

// Cancel requests cancellation: a queued job becomes cancelled
// immediately; a running job has its context cancelled and reaches
// cancelled when its runner returns. The snapshot reflects the state at
// return time.
func (m *Manager) Cancel(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	if j.Terminal() {
		return j.clone(), ErrTerminal
	}
	if j.State == StateQueued {
		j.LastError = "cancelled"
		m.transitionLocked(j, StateCancelled)
		return j.clone(), nil
	}
	// Running: flag it and interrupt the attempt.
	m.cancelReq[id] = true
	if cancel, ok := m.running[id]; ok {
		cancel()
	}
	return j.clone(), nil
}

// Wait blocks until the job reaches a terminal state (or ctx ends) and
// returns its final snapshot.
func (m *Manager) Wait(ctx context.Context, id string) (*Job, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, ErrNotFound
	}
	if j.Terminal() {
		c := j.clone()
		m.mu.Unlock()
		return c, nil
	}
	ch := m.doneCh[id]
	m.mu.Unlock()
	select {
	case <-ch:
		return m.mustGet(id), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (m *Manager) mustGet(id string) *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[id]; ok {
		return j.clone()
	}
	// Evicted between close(ch) and the read: report a minimal tombstone.
	return &Job{ID: id, State: StateDone}
}

// Depths reports the queued and running job counts (live gauges).
func (m *Manager) Depths() (queued, running int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.jobs {
		switch j.State {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
	}
	return queued, running
}

// signal nudges the dispatcher without blocking.
func (m *Manager) signal() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// dispatch is the scheduler loop: pick the best eligible queued job
// (priority class, then backoff gate, then submission order), bound
// concurrency with the limiter, and hand the job to a worker goroutine.
func (m *Manager) dispatch() {
	defer close(m.dispatcherDone)
	for {
		// Hold a worker slot before scanning, so a picked job starts
		// immediately; give it back when nothing is ready.
		if err := m.limiter.Acquire(m.baseCtx); err != nil {
			return
		}
		j, wait := m.pick()
		if j == nil {
			m.limiter.Release()
			var timer <-chan time.Time
			if wait > 0 {
				t := time.NewTimer(wait)
				timer = t.C
				select {
				case <-m.baseCtx.Done():
					t.Stop()
					return
				case <-m.wake:
					t.Stop()
				case <-timer:
				}
				continue
			}
			select {
			case <-m.baseCtx.Done():
				return
			case <-m.wake:
			}
			continue
		}
		m.wg.Add(1)
		go m.run(j)
	}
}

// pick selects and claims the next runnable job, or returns how long until
// one could become runnable (0 = indefinitely). Jobs whose deadline passed
// while queued are failed here.
func (m *Manager) pick() (*Job, time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	var best *Job
	var nearest time.Duration
	for _, j := range m.jobs {
		if j.State != StateQueued {
			continue
		}
		if !j.Deadline.IsZero() && now.After(j.Deadline) {
			j.LastError = "job deadline exceeded while queued"
			m.transitionLocked(j, StateFailed)
			continue
		}
		if j.NextRunAt.After(now) {
			if d := j.NextRunAt.Sub(now); nearest == 0 || d < nearest {
				nearest = d
			}
			continue
		}
		if best == nil || j.Priority < best.Priority ||
			(j.Priority == best.Priority && j.Seq < best.Seq) {
			best = j
		}
	}
	if best == nil {
		return nil, nearest
	}
	best.Attempts++
	best.StartedAt = now
	best.NextRunAt = time.Time{}
	ctx, cancel := context.WithCancel(m.baseCtx)
	m.running[best.ID] = cancel
	m.transitionLocked(best, StateRunning)
	// The worker needs the attempt context; stash it via closure instead
	// of the job (which is WAL-serialized).
	best = best.clone()
	best.runCtx = ctx
	return best, 0
}

// run executes one attempt and applies the resulting transition.
func (m *Manager) run(snapshot *Job) {
	defer m.wg.Done()
	defer m.limiter.Release()
	ctx := snapshot.runCtx
	cancelFns := []context.CancelFunc{}
	if m.cfg.Timeout > 0 {
		var c context.CancelFunc
		ctx, c = context.WithTimeout(ctx, m.cfg.Timeout)
		cancelFns = append(cancelFns, c)
	}
	if !snapshot.Deadline.IsZero() {
		var c context.CancelFunc
		ctx, c = context.WithDeadline(ctx, snapshot.Deadline)
		cancelFns = append(cancelFns, c)
	}
	result, err := m.runner(ctx, snapshot)
	for _, c := range cancelFns {
		c()
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if cancel, ok := m.running[snapshot.ID]; ok {
		cancel()
		delete(m.running, snapshot.ID)
	}
	j, ok := m.jobs[snapshot.ID]
	if !ok || j.State != StateRunning {
		return // cancelled-and-evicted race; nothing to record
	}
	wasCancelled := m.cancelReq[j.ID]
	now := time.Now()
	switch {
	case err == nil:
		j.Result = result
		j.LastError = ""
		m.transitionLocked(j, StateDone)
	case wasCancelled:
		j.LastError = "cancelled"
		m.transitionLocked(j, StateCancelled)
	case m.closed && ctx.Err() != nil && (j.Deadline.IsZero() || now.Before(j.Deadline)):
		// Graceful drain interrupted the attempt: checkpoint the job back
		// to queued so a restart re-runs it (as a fresh attempt). The
		// interruption does not consume a retry.
		j.LastError = ""
		j.NextRunAt = time.Time{}
		m.transitionLocked(j, StateQueued)
	case !j.Deadline.IsZero() && !now.Before(j.Deadline):
		j.LastError = fmt.Sprintf("job deadline exceeded: %v", err)
		m.transitionLocked(j, StateFailed)
	case IsPermanent(err):
		j.LastError = err.Error()
		m.transitionLocked(j, StateFailed)
	case j.Attempts <= j.MaxRetries:
		j.LastError = err.Error()
		j.NextRunAt = now.Add(backoff(m.cfg.RetryBase, m.cfg.RetryCap, j.Attempts))
		if m.cfg.Obs.Retried != nil {
			m.cfg.Obs.Retried()
		}
		m.transitionLocked(j, StateQueued)
		m.signal()
	default:
		j.LastError = fmt.Sprintf("%v (after %d attempts)", err, j.Attempts)
		m.transitionLocked(j, StateFailed)
	}
}

// Close drains the manager: submissions are refused, the dispatcher stops,
// running jobs are interrupted and checkpointed back to queued (the WAL
// re-runs them on restart), and the WAL is closed. Close returns ctx.Err()
// if workers did not settle in time.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()

	m.baseCancel() // stops dispatcher, interrupts every running attempt
	<-m.dispatcherDone
	settled := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(settled)
	}()
	var err error
	select {
	case <-settled:
	case <-ctx.Done():
		err = ctx.Err()
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	_ = m.compactLocked()
	_ = m.wal.Close()
	m.wal = nil
	return err
}
