package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/dep"
	"repro/internal/engine"
	"repro/internal/frontend"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/ir"
	"repro/optlib"
)

// JobSubmitRequest is the body of POST /v1/jobs: an optimize request plus
// scheduling knobs. The embedded OptimizeRequest fields appear inline.
type JobSubmitRequest struct {
	OptimizeRequest
	// Priority is "high", "normal" (default) or "low".
	Priority string `json:"priority,omitempty"`
	// MaxRetries overrides the server's retry budget for this job; nil
	// selects the server default.
	MaxRetries *int `json:"max_retries,omitempty"`
	// DeadlineMS, when > 0, fails the job once this many milliseconds have
	// passed since submission — queued or running.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Trace asks for the span forest in the job result (bypasses the result
	// cache, like ?trace=1 on /v1/optimize).
	Trace bool `json:"trace,omitempty"`
}

// jobKey is the idempotency key: a content address over everything that
// shapes the result. Scheduling knobs (priority, retries, deadline) are
// deliberately excluded — resubmitting the same work at a different
// priority still dedups onto the in-flight job.
func (req *JobSubmitRequest) jobKey() string {
	parts := []string{"jobs/v1", req.Source, strings.Join(req.Opts, ",")}
	for _, st := range req.Specs {
		parts = append(parts, st.Name, st.Text)
	}
	parts = append(parts,
		fmt.Sprint(req.MaxIterations),
		fmt.Sprint(req.Recompute == nil || *req.Recompute),
		fmt.Sprint(req.Trace),
		req.Order)
	return CacheKey(parts...)
}

// JobView is the wire shape of a job in every /v1/jobs response.
type JobView struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Priority string `json:"priority"`
	// Attempts counts started attempts; with NextRunAt it is the backoff
	// state a poller sees between retries.
	Attempts    int       `json:"attempts"`
	MaxRetries  int       `json:"max_retries"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
	NextRunAt   time.Time `json:"next_run_at,omitzero"`
	Deadline    time.Time `json:"deadline,omitzero"`
	LastError   string    `json:"last_error,omitempty"`
	// Existing reports that submission dedup'd onto a prior job.
	Existing bool `json:"existing,omitempty"`
}

func jobView(j *jobs.Job) JobView {
	return JobView{
		ID:          j.ID,
		State:       string(j.State),
		Priority:    j.Priority.String(),
		Attempts:    j.Attempts,
		MaxRetries:  j.MaxRetries,
		SubmittedAt: j.SubmittedAt,
		StartedAt:   j.StartedAt,
		FinishedAt:  j.FinishedAt,
		NextRunAt:   j.NextRunAt,
		Deadline:    j.Deadline,
		LastError:   j.LastError,
	}
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) error {
	var req JobSubmitRequest
	if err := decodeBody(r, &req); err != nil {
		return err
	}
	if strings.TrimSpace(req.Source) == "" {
		return failf(http.StatusBadRequest, "bad_request", "request needs a MiniF program in source")
	}
	// Validate and canonicalize up front so bad requests fail at submission
	// (synchronously, as a 400) instead of as a failed job, and so "cse"
	// and "CSE" dedup onto the same key.
	names, err := canonOpts(req.Opts)
	if err != nil {
		return err
	}
	req.Opts = names
	// The order directive resolves at submission time (an auto decision is
	// made against the store as it stands now, and the resolved order rides
	// in the payload), so it shapes the idempotency key like any other
	// result-affecting field.
	if q := r.URL.Query().Get("order"); q != "" {
		req.Order = q
	}
	if _, err := s.resolveOrder(r.Context(), &req.OptimizeRequest, nil); err != nil {
		return err
	}
	prio, perr := jobs.ParsePriority(req.Priority)
	if perr != nil {
		return failf(http.StatusBadRequest, "bad_request", "%v", perr)
	}
	retries := -1 // manager default
	if req.MaxRetries != nil {
		if *req.MaxRetries < 0 {
			return failf(http.StatusBadRequest, "bad_request", "max_retries must be >= 0")
		}
		retries = *req.MaxRetries
	}
	var deadline time.Time
	if req.DeadlineMS > 0 {
		deadline = time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	payload, err := json.Marshal(&req)
	if err != nil {
		return failf(http.StatusBadRequest, "bad_request", "unencodable job payload: %v", err)
	}
	// The job ID is derived from the idempotency key's content address
	// rather than random: every cluster node can then compute a job's
	// owning shard from the ID alone, and status routes redirect without a
	// lookup table. Owner-aware submission rides on the same property — a
	// resubmission anywhere in the cluster routes to the same owner and
	// dedups there.
	key := req.jobKey()
	// The submitter's trace context rides in the job record (through the
	// WAL), so the attempt's spans — possibly on another day, after a crash —
	// join the trace of the request that queued the work.
	j, existing, err := s.jobs.Submit(jobs.SubmitRequest{
		ID:          jobIDForKey(key),
		Key:         key,
		Payload:     payload,
		Priority:    prio,
		MaxRetries:  retries,
		Deadline:    deadline,
		TraceID:     trace.FragmentFrom(r.Context()).TraceID(),
		TraceParent: trace.Traceparent(r.Context()),
	})
	switch {
	case errors.Is(err, jobs.ErrClosed):
		w.Header().Set("Retry-After", "5")
		return failf(http.StatusServiceUnavailable, "draining", "job queue is shutting down")
	case errors.Is(err, jobs.ErrIDInUse):
		return failf(http.StatusConflict, "id_conflict", "%v", err)
	case err != nil:
		return failf(http.StatusInternalServerError, "jobs_wal", "could not persist job: %v", err)
	}
	v := jobView(j)
	v.Existing = existing
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, v)
	return nil
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	if s.redirectJob(w, r, id) {
		return nil
	}
	// ?wait=1 long-polls until the job is terminal or the request deadline
	// hits, then reports whatever state the job is in.
	if r.URL.Query().Get("wait") == "1" {
		if j, err := s.jobs.Wait(r.Context(), id); err == nil {
			writeJSON(w, http.StatusOK, jobView(j))
			return nil
		} else if errors.Is(err, jobs.ErrNotFound) {
			return failf(http.StatusNotFound, "no_job", "no job %q", id)
		}
	}
	j, ok := s.jobs.Get(id)
	if !ok {
		return failf(http.StatusNotFound, "no_job", "no job %q", id)
	}
	writeJSON(w, http.StatusOK, jobView(j))
	return nil
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	if s.redirectJob(w, r, id) {
		return nil
	}
	j, ok := s.jobs.Get(id)
	if !ok {
		return failf(http.StatusNotFound, "no_job", "no job %q", id)
	}
	switch j.State {
	case jobs.StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(j.Result)
		if len(j.Result) == 0 || j.Result[len(j.Result)-1] != '\n' {
			_, _ = w.Write([]byte("\n"))
		}
		return nil
	case jobs.StateFailed:
		return failf(http.StatusUnprocessableEntity, "job_failed", "%s", j.LastError)
	case jobs.StateCancelled:
		return failf(http.StatusGone, "job_cancelled", "job %s was cancelled", id)
	default:
		w.Header().Set("Retry-After", "1")
		return failf(http.StatusConflict, "job_pending",
			"job %s is %s (attempt %d); result not ready", id, j.State, j.Attempts)
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	if s.redirectJob(w, r, id) {
		return nil
	}
	j, err := s.jobs.Cancel(id)
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		return failf(http.StatusNotFound, "no_job", "no job %q", id)
	case errors.Is(err, jobs.ErrTerminal):
		return failf(http.StatusConflict, "job_finished", "job %s already %s", id, j.State)
	case err != nil:
		return failf(http.StatusInternalServerError, "internal", "%v", err)
	}
	// A running job cancels asynchronously (its context is cancelled and it
	// reaches cancelled when the attempt returns), hence 202 not 200.
	writeJSON(w, http.StatusAccepted, jobView(j))
	return nil
}

// JobListResponse is the body of GET /v1/jobs.
type JobListResponse struct {
	Jobs []JobView `json:"jobs"`
	// Next, when non-zero, is the ?before= cursor for the following page.
	Next uint64 `json:"next,omitempty"`
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	state := jobs.State(q.Get("state"))
	switch state {
	case "", jobs.StateQueued, jobs.StateRunning, jobs.StateDone, jobs.StateFailed, jobs.StateCancelled:
	default:
		return failf(http.StatusBadRequest, "bad_request",
			"unknown state %q (have queued, running, done, failed, cancelled)", state)
	}
	limit := 50
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 1000 {
			return failf(http.StatusBadRequest, "bad_request", "limit must be in 1..1000")
		}
		limit = n
	}
	var before uint64
	if v := q.Get("before"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return failf(http.StatusBadRequest, "bad_request", "before must be a cursor from a prior page")
		}
		before = n
	}
	page, next := s.jobs.List(state, limit, before)
	resp := JobListResponse{Jobs: make([]JobView, len(page)), Next: next}
	for i, j := range page {
		resp.Jobs[i] = jobView(j)
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// runJob executes one job attempt under its own trace fragment: the root
// "job.run" span joins the submitter's trace through the context recorded
// in the job's WAL record, a synthetic "job.queue" span reconstructs the
// queue wait from the submit/start timestamps, and the attempt's outcome
// feeds the tail sampler under the "jobs.run" route.
func (s *Server) runJob(ctx context.Context, j *jobs.Job) (json.RawMessage, error) {
	var frag *trace.Fragment
	if s.traces != nil && j.TraceID != "" {
		parent, _ := trace.ParseTraceparent(j.TraceParent)
		node := ""
		if s.cluster != nil {
			node = s.cluster.Self()
		}
		frag = trace.NewFragment(parent, "job.run", node)
		root := frag.Root()
		root.Set("id", j.ID)
		root.Set("attempt", strconv.Itoa(j.Attempts))
		if !j.StartedAt.IsZero() && j.StartedAt.After(j.SubmittedAt) {
			frag.AddSpan(root, "job.queue", j.SubmittedAt, j.StartedAt.Sub(j.SubmittedAt))
		}
		ctx = trace.ContextWithFragment(ctx, frag, root)
	}
	raw, err := s.runJobAttempt(ctx, j)
	if frag != nil {
		root := frag.Root()
		switch {
		case err == nil:
			root.SetStatus(http.StatusOK)
		case jobs.IsPermanent(err):
			root.SetStatus(http.StatusUnprocessableEntity)
			root.SetError(err.Error())
		default:
			root.SetStatus(http.StatusInternalServerError)
			root.SetError(err.Error())
		}
		s.traces.Record("jobs.run", frag.Spans())
	}
	return raw, err
}

// runJobAttempt is the attempt body: the same parse → optimize pipeline as
// POST /v1/optimize, sharing its content-addressed result cache, but driven
// by the job manager's worker pool under the attempt context. Deterministic
// failures (bad payload, parse errors, spec errors, iteration limit) are
// marked Permanent so the scheduler fails them without burning retries;
// context errors (attempt timeout, drain, cancel) bubble up untouched so
// the manager can requeue or cancel.
func (s *Server) runJobAttempt(ctx context.Context, j *jobs.Job) (json.RawMessage, error) {
	// A top-level "farm" key marks a fuzzing-campaign seed job; everything
	// else is an optimize payload.
	var probe struct {
		Farm *farmJobSpec `json:"farm"`
	}
	if err := json.Unmarshal(j.Payload, &probe); err == nil && probe.Farm != nil {
		return s.runFarmJob(ctx, probe.Farm)
	}
	var req JobSubmitRequest
	if err := json.Unmarshal(j.Payload, &req); err != nil {
		return nil, jobs.Permanent(fmt.Errorf("corrupt job payload: %w", err))
	}
	// The order directive was resolved at submission; req.Opts is already
	// the effective order, so stamping is all that is left to do here.
	var order []string
	if strings.TrimSpace(req.Order) != "" {
		order = append([]string(nil), req.Opts...)
	}

	var key string
	if !req.NoCache && !req.Trace {
		key = req.OptimizeRequest.cacheKey()
		if raw, ok := s.cache.Get(key); ok {
			s.metrics.CacheHits.Add(1)
			var resp OptimizeResponse
			if err := json.Unmarshal(raw, &resp); err == nil {
				resp.Cached = true
				return json.Marshal(resp)
			}
		}
		s.metrics.CacheMisses.Add(1)
	}

	var results []PassResult
	timing := func(spec string, apps int, d time.Duration) {
		results = append(results, PassResult{Name: spec, Applications: apps, DurationUS: d.Microseconds()})
	}
	var tracer *obs.Tracer
	if req.Trace {
		tracer = obs.NewTracer(obs.Collect(), obs.WithLogger(s.cfg.Logger.With("job_id", j.ID)))
	}
	passes, err := s.compilePasses(&req.OptimizeRequest, timing, tracer)
	if err != nil {
		return nil, jobs.Permanent(err)
	}

	t0 := time.Now()
	psp, _ := trace.Start(ctx, "parse")
	prog, err := frontend.Parse(req.Source)
	psp.End()
	if err != nil {
		psp.SetError(err.Error())
		return nil, jobs.Permanent(fmt.Errorf("parse error: %w", err))
	}
	parseUS := time.Since(t0).Microseconds()

	var g *dep.Graph // carried from pass to pass
	for _, ps := range passes {
		sp, _ := trace.Start(ctx, "pass."+ps.name)
		var apps []engine.Application
		apps, g, err = ps.opt.ApplyAllWith(ctx, prog, g)
		sp.Set("applications", strconv.Itoa(len(apps)))
		sp.End()
		if err != nil {
			sp.SetError(err.Error())
			switch {
			case errors.Is(err, optlib.ErrIterationLimit):
				s.metrics.IterationLimitAborts.Add(1)
				return nil, jobs.Permanent(fmt.Errorf(
					"pass %s hit its iteration limit after %d application(s)", ps.name, len(apps)))
			case ctx.Err() != nil:
				if errors.Is(ctx.Err(), context.DeadlineExceeded) {
					s.metrics.Timeouts.Add(1)
				}
				return nil, ctx.Err()
			default:
				return nil, jobs.Permanent(fmt.Errorf("pass %s: %w", ps.name, err))
			}
		}
	}

	resp := OptimizeResponse{
		MiniF:        ir.ToMiniF(prog),
		IR:           prog.String(),
		Applications: results,
		ParseUS:      parseUS,
		TotalUS:      time.Since(t0).Microseconds(),
		Order:        order,
	}
	if req.Trace {
		// Join the engine's per-pass span trees under one job root so the
		// stored trace carries the job identity and attempt number.
		resp.Trace = []*obs.Node{{
			Name: "job",
			Attrs: []obs.Field{
				{Key: "id", Value: j.ID},
				{Key: "attempt", Value: j.Attempts},
			},
			DurationUS: resp.TotalUS,
			Children:   tracer.Trees(),
		}}
	}
	raw, err := json.Marshal(resp)
	if err != nil {
		return nil, jobs.Permanent(fmt.Errorf("unencodable job result: %w", err))
	}
	if key != "" {
		s.cache.Put(key, raw)
	}
	return raw, nil
}
