// Package jobs is the durable asynchronous job queue behind optd's batch
// API: the submit → poll → fetch decoupling the paper's constructor needs
// to run many optimizations over many programs in one sitting without
// holding a connection per program (Section 4 batches ten optimizers over
// ten HOMPACK routines).
//
// Durability comes from a write-ahead log (a wal.Log, opened in wal.go):
// every job state transition appends one CRC-framed record carrying the
// job's full state, and startup replays the log so submitted-but-unfinished
// jobs survive a crash. Replay tolerates a truncated tail record (the frame a kill -9 cut
// short) by stopping at the first bad frame and truncating the file there.
//
// Scheduling (manager.go) offers priority classes, per-job deadlines,
// bounded retries with exponential backoff + jitter, and idempotent
// submission: a job resubmitted under the same content-addressed key
// returns the prior job instead of queueing duplicate work. Workers are
// bounded by an internal/par limiter; graceful drain checkpoints running
// jobs back to the queued state so a restart re-runs them — an accepted
// job is never lost, and no job runs its action phase twice under the same
// attempt number.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"
)

// State is a job's position in the lifecycle state machine:
//
//	queued → running → done
//	                 → failed     (retries exhausted, permanent error, deadline)
//	                 → queued     (retryable failure, or drain checkpoint)
//	queued  → cancelled
//	running → cancelled
//
// done, failed and cancelled are terminal.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Priority orders ready jobs: lower values dispatch first.
type Priority int

const (
	PriorityHigh   Priority = 0
	PriorityNormal Priority = 1
	PriorityLow    Priority = 2
)

// ParsePriority maps the wire names to priority classes; "" is normal.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "normal":
		return PriorityNormal, nil
	case "high":
		return PriorityHigh, nil
	case "low":
		return PriorityLow, nil
	}
	return 0, fmt.Errorf("jobs: unknown priority %q (have high, normal, low)", s)
}

func (p Priority) String() string {
	switch p {
	case PriorityHigh:
		return "high"
	case PriorityLow:
		return "low"
	}
	return "normal"
}

// Job is one unit of asynchronous work plus its full lifecycle state. The
// same struct is the WAL record payload and the basis of the HTTP status
// body, so everything needed to resume after a crash rides in it.
type Job struct {
	// ID is the server-assigned identity; Seq orders jobs by submission.
	ID  string `json:"id"`
	Seq uint64 `json:"seq"`
	// Key is the content-addressed idempotency key (SHA-256 of the request
	// material). Resubmitting an identical payload returns the prior job.
	Key string `json:"key"`
	// Payload is the opaque work description the Runner interprets.
	Payload json.RawMessage `json:"payload"`

	Priority Priority `json:"priority"`
	State    State    `json:"state"`
	// Attempts counts started attempts; the run in progress (or the next
	// one) is attempt Attempts. A crash or drain requeue never reuses an
	// attempt number: restarting increments it again.
	Attempts int `json:"attempts"`
	// MaxRetries bounds re-runs after the first attempt.
	MaxRetries int `json:"max_retries"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
	// NextRunAt is the backoff gate: a queued job is not dispatched before
	// it. Zero means immediately eligible.
	NextRunAt time.Time `json:"next_run_at,omitzero"`
	// Deadline, when set, fails the job outright once passed — queued or
	// running.
	Deadline time.Time `json:"deadline,omitzero"`

	// TraceID and TraceParent carry the submitter's distributed-trace
	// context (trace identity and parent span, W3C traceparent form) through
	// the WAL, so the spans of a job attempt — possibly after a crash and
	// restart — join the trace of the request that submitted it.
	TraceID     string `json:"trace_id,omitempty"`
	TraceParent string `json:"trace_parent,omitempty"`

	// LastError is the most recent attempt's failure (also the terminal
	// error of a failed job).
	LastError string `json:"last_error,omitempty"`
	// Result is the Runner's output, present once done.
	Result json.RawMessage `json:"result,omitempty"`

	// runCtx carries the attempt context from the dispatcher to the
	// worker goroutine; never serialized.
	runCtx context.Context
}

// Terminal reports whether the job reached a final state.
func (j *Job) Terminal() bool { return j.State.Terminal() }

// clone returns a copy safe to hand outside the manager's lock.
func (j *Job) clone() *Job {
	c := *j
	return &c
}

// Exported error values of the manager API.
var (
	ErrNotFound = errors.New("jobs: no such job")
	ErrTerminal = errors.New("jobs: job already finished")
	ErrClosed   = errors.New("jobs: manager closed")
	ErrIDInUse  = errors.New("jobs: id held by a live job")
)

// permanentError marks a failure that retrying cannot fix (bad input,
// deterministic optimizer error); the scheduler fails the job immediately
// instead of burning retries.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so the scheduler skips retries for it.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked
// Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// backoff computes the delay before retry `attempt` (1-based: the delay
// after the attempt-th failure): base·2^(attempt-1) capped at max, with
// ±50% jitter so a batch of jobs failing together does not retry in
// lockstep.
func backoff(base, max time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	if max <= 0 {
		max = 30 * time.Second
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + rand.N(half+1)
}
