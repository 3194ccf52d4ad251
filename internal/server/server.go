// Package server implements optd, the long-running optimization service:
// the paper's constructor-built optimizer interface exposed as an HTTP/JSON
// API instead of a one-shot CLI. The full parse → dependence-compute →
// optimize → MiniF pipeline is available both statelessly (POST
// /v1/optimize, POST /v1/points) and through a stateful session API
// mirroring the interactive constructor (create a session, list candidate
// application points, apply or skip points, override dependence
// restrictions, toggle recomputation, fetch the result).
//
// Robustness is first-class: a content-addressed LRU result cache keyed by
// SHA-256 of the request material, admission control over a bounded
// concurrency limiter (internal/par), per-request timeouts via context,
// panic recovery that converts optimizer panics into 500s without killing
// the daemon, optlib.ErrIterationLimit surfaced as a structured 422, and
// graceful shutdown that drains in-flight requests while refusing new ones.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/gospel"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/specs"
	"repro/internal/trace"
)

// Config tunes the server. The zero value selects production defaults.
type Config struct {
	// MaxConcurrent bounds the number of optimization requests running at
	// once (admission control); values < 1 select GOMAXPROCS.
	MaxConcurrent int
	// CacheEntries bounds the result cache; 0 selects 256, negative
	// disables caching.
	CacheEntries int
	// RequestTimeout bounds each optimization request; 0 selects 30s.
	RequestTimeout time.Duration
	// MaxIterations is the per-pass application cap used when a request
	// does not set its own; 0 selects the optlib default (1000).
	MaxIterations int
	// MaxBodyBytes bounds request bodies; 0 selects 1 MiB.
	MaxBodyBytes int64
	// MaxSessions bounds live constructor sessions; 0 selects 64.
	MaxSessions int
	// SessionTTL evicts sessions idle longer than this; 0 selects 30m.
	SessionTTL time.Duration
	// Logger receives structured request and pass logs; nil selects
	// slog.Default(). Handlers derive a request-scoped logger from it
	// carrying the request ID and route.
	Logger *slog.Logger

	// JobsDir holds the batch-job write-ahead log; empty selects an
	// in-memory (non-durable) queue.
	JobsDir string
	// JobsWorkers bounds concurrently running batch jobs; values < 1
	// select GOMAXPROCS.
	JobsWorkers int
	// JobsRetries is the default re-run budget after a job's first
	// attempt; negative selects 2.
	JobsRetries int
	// JobsRetryBase shapes the retry backoff; 0 selects 250ms.
	JobsRetryBase time.Duration
	// JobsKeepTerminal bounds retained finished jobs; 0 selects 1024.
	JobsKeepTerminal int
	// JobsNoSync skips the WAL's per-append fsync (benchmarks only).
	JobsNoSync bool

	// Peers lists every cluster member's advertise address (host:port);
	// empty runs a single node with no routing layer at all. The list must
	// be identical (up to order) on every member.
	Peers []string
	// Advertise is this node's own entry in Peers; required when Peers is
	// set.
	Advertise string
	// ProbeInterval and ProbeBackoffCap tune peer health probing; zero
	// selects the cluster package defaults (1s, 15s).
	ProbeInterval   time.Duration
	ProbeBackoffCap time.Duration

	// AdvisorDir holds the pass-ordering advisor's outcome store; empty
	// keeps the harvested history in memory only (lost on restart). The
	// advisor itself is always on — order=auto against an empty store falls
	// back to the default order.
	AdvisorDir string
	// AdvisorK is the neighbor count per order=auto decision; values < 1
	// select 8.
	AdvisorK int
	// AdvisorMinNeighbors is the evidence floor below which order=auto
	// falls back to the default order; values < 1 select 3.
	AdvisorMinNeighbors int
	// AdvisorMaxRecords bounds the outcome-store window; values < 1 select
	// 4096.
	AdvisorMaxRecords int

	// TraceStore bounds the distributed-trace store's retained fragments on
	// this node; 0 selects 1024, negative disables distributed tracing
	// entirely (no store, no X-Optd-Trace-Id, no /v1/traces data).
	TraceStore int
	// TraceSampleN keeps 1 in N unremarkable traces; error and
	// slow-percentile traces are always kept regardless. 0 selects 16, 1
	// keeps everything (tests and smokes).
	TraceSampleN int
	// TraceDir spills kept trace fragments to a CRC-framed log under this
	// directory, replayed on restart; empty keeps the trace window in
	// memory only.
	TraceDir string

	// FarmDir holds the fuzzing farm's durable finding log; empty keeps
	// findings in memory only (lost on restart). The farm itself is always
	// mounted: campaigns run as low-priority jobs on the shared job queue.
	FarmDir string

	// testHook, when non-nil, runs inside the optimize handler after
	// admission and before the pipeline — a seam for shutdown/timeout
	// tests. It receives the request context.
	testHook func(ctx context.Context) error
}

func (c Config) withDefaults() Config {
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 30 * time.Minute
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server is one optd instance: handlers plus the shared cache, metrics,
// session store and admission limiter. Create with New, mount Handler into
// an http.Server, and call Shutdown to drain.
type Server struct {
	cfg      Config
	limiter  *par.Limiter
	cache    *Cache
	metrics  *Metrics
	sessions *sessionStore
	jobs     *jobs.Manager
	cluster  *cluster.Cluster // nil on a single node
	advisor  *advisor.Advisor
	traces   *trace.Store // nil when Config.TraceStore < 0
	farm     *farmState
	mux      *http.ServeMux
	// builtins holds every built-in spec, parsed and checked once in New
	// and shared read-only by all requests; each request still compiles
	// its own optimizers, because the engine options are per request.
	builtins map[string]*gospel.Spec

	mu       sync.RWMutex // guards draining against in-flight accounting
	draining bool
	inflight sync.WaitGroup

	reqSeq atomic.Int64 // request ID sequence
}

// New builds a server from the configuration. It can fail: a durable jobs
// directory (Config.JobsDir) is opened — and its write-ahead log replayed —
// before the server accepts traffic, so jobs interrupted by a crash are
// requeued up front.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	builtins := make(map[string]*gospel.Spec, len(specs.Sources))
	for name, src := range specs.Sources {
		spec, err := gospel.ParseAndCheck(name, src)
		if err != nil {
			return nil, fmt.Errorf("server: built-in %s: %w", name, err)
		}
		builtins[name] = spec
	}
	s := &Server{
		cfg:      cfg,
		limiter:  par.NewLimiter(cfg.MaxConcurrent),
		cache:    NewCache(cfg.CacheEntries),
		metrics:  newMetrics(),
		builtins: builtins,
	}
	s.sessions = newSessionStore(cfg.MaxSessions, cfg.SessionTTL, s.metrics)
	if cfg.TraceStore >= 0 {
		ts, err := trace.Open(trace.Config{
			Capacity: cfg.TraceStore,
			SampleN:  cfg.TraceSampleN,
			Dir:      cfg.TraceDir,
		})
		if err != nil {
			s.sessions.close()
			return nil, fmt.Errorf("server: opening trace dir %q: %w", cfg.TraceDir, err)
		}
		s.traces = ts
		s.metrics.setTraceStats(ts.Stats)
	}
	adv, err := advisor.Open(advisor.Config{
		Dir:          cfg.AdvisorDir,
		K:            cfg.AdvisorK,
		MinNeighbors: cfg.AdvisorMinNeighbors,
		MaxRecords:   cfg.AdvisorMaxRecords,
		Obs:          s.metrics.advisorObs(),
	})
	if err != nil {
		s.sessions.close()
		_ = s.traces.Close()
		return nil, fmt.Errorf("server: opening advisor dir %q: %w", cfg.AdvisorDir, err)
	}
	s.advisor = adv
	s.metrics.advisorOn.Store(true)
	fs, err := newFarmState(cfg.FarmDir)
	if err != nil {
		s.sessions.close()
		_ = s.traces.Close()
		_ = s.advisor.Close()
		return nil, fmt.Errorf("server: opening farm dir %q: %w", cfg.FarmDir, err)
	}
	s.farm = fs
	s.metrics.setFarmCampaigns(fs.mgr.List)
	if len(cfg.Peers) > 0 {
		cl, err := cluster.New(cluster.Config{
			Self:            cfg.Advertise,
			Peers:           cfg.Peers,
			ProbeInterval:   cfg.ProbeInterval,
			ProbeBackoffCap: cfg.ProbeBackoffCap,
			Logger:          cfg.Logger,
			OnPeerChange:    func(string, bool) { s.metrics.ClusterPeerTransitions.Add(1) },
		})
		if err != nil {
			s.sessions.close()
			_ = s.traces.Close()
			_ = s.advisor.Close()
			_ = s.farm.close()
			return nil, err
		}
		s.cluster = cl
		s.metrics.setClusterStatus(cl.Self(), cl.Peers(), cl.Status)
		cl.Start()
	}
	jobsObs := s.metrics.jobsObs()
	// Completed jobs feed the pass-ordering advisor the same way inline
	// optimize runs do.
	jobsObs.Completed = s.jobCompleted
	mgr, err := jobs.New(s.runJob, jobs.Config{
		Dir:          cfg.JobsDir,
		Workers:      cfg.JobsWorkers,
		MaxRetries:   cfg.JobsRetries,
		RetryBase:    cfg.JobsRetryBase,
		Timeout:      cfg.RequestTimeout,
		KeepTerminal: cfg.JobsKeepTerminal,
		NoSync:       cfg.JobsNoSync,
		Obs:          jobsObs,
	})
	if err != nil {
		s.sessions.close()
		_ = s.traces.Close()
		_ = s.advisor.Close()
		_ = s.farm.close()
		if s.cluster != nil {
			s.cluster.Close()
		}
		return nil, fmt.Errorf("server: opening jobs dir %q: %w", cfg.JobsDir, err)
	}
	s.jobs = mgr
	// WAL replay re-creates jobs without firing the lifecycle callbacks;
	// seed the gauges from the recovered table.
	q, r := mgr.Depths()
	s.metrics.JobsQueued.Store(int64(q))
	s.metrics.JobsRunning.Store(int64(r))
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// Metrics exposes the server's counters (primarily for tests and benches).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Jobs exposes the job manager (primarily for tests and benches).
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// Cluster exposes the routing layer; nil on a single node.
func (s *Server) Cluster() *cluster.Cluster { return s.cluster }

// Advisor exposes the pass-ordering advisor (primarily for tests and
// benches — e.g. Flush barriers over the asynchronous harvest path).
func (s *Server) Advisor() *advisor.Advisor { return s.advisor }

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.wrap("healthz", false, s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.wrap("metrics", false, s.handleMetrics))
	s.mux.HandleFunc("GET /v1/version", s.wrap("version", false, s.handleVersion))
	// Trace queries. Neither admits: both only read the in-memory window.
	s.mux.HandleFunc("GET /v1/traces", s.wrap("traces.list", false, s.handleTraceList))
	s.mux.HandleFunc("GET /v1/traces/{id}", s.wrap("traces.get", false, s.handleTraceGet))
	s.mux.HandleFunc("POST /v1/optimize", s.wrap("optimize", true, s.sharded(optimizeRouteKey, s.handleOptimize)))
	s.mux.HandleFunc("POST /v1/points", s.wrap("points", true, s.handlePoints))
	s.mux.HandleFunc("POST /v1/session", s.wrap("session.create", true, s.handleSessionCreate))
	s.mux.HandleFunc("GET /v1/session/{id}", s.wrap("session.get", false, s.handleSessionGet))
	s.mux.HandleFunc("DELETE /v1/session/{id}", s.wrap("session.delete", false, s.handleSessionDelete))
	s.mux.HandleFunc("GET /v1/session/{id}/points", s.wrap("session.points", true, s.handleSessionPoints))
	s.mux.HandleFunc("POST /v1/session/{id}/apply", s.wrap("session.apply", true, s.handleSessionApply))
	s.mux.HandleFunc("POST /v1/session/{id}/skip", s.wrap("session.skip", true, s.handleSessionSkip))
	s.mux.HandleFunc("POST /v1/session/{id}/applyall", s.wrap("session.applyall", true, s.handleSessionApplyAll))
	s.mux.HandleFunc("POST /v1/session/{id}/recompute", s.wrap("session.recompute", false, s.handleSessionRecompute))
	s.mux.HandleFunc("GET /v1/session/{id}/result", s.wrap("session.result", false, s.handleSessionResult))
	// Batch jobs. None of these admit through the request limiter: the
	// handlers only touch the job table, and execution is bounded by the
	// job manager's own worker pool.
	// Submission is proxied to the content address's owner; the status
	// routes answer with a one-hop 307 to the owner instead (the job ID is
	// derived from the content address, so any node can compute it).
	s.mux.HandleFunc("POST /v1/jobs", s.wrap("jobs.submit", false, s.sharded(jobRouteKey, s.handleJobSubmit)))
	s.mux.HandleFunc("GET /v1/jobs", s.wrap("jobs.list", false, s.handleJobList))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.wrap("jobs.get", false, s.handleJobGet))
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.wrap("jobs.result", false, s.handleJobResult))
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.wrap("jobs.cancel", false, s.handleJobCancel))
	// Fuzzing farm. Campaign starts route to the campaign's
	// content-address owner like job submission; status and findings
	// answer with a one-hop 307. Execution is bounded by the job manager's
	// worker pool, so none of these admit through the request limiter.
	s.mux.HandleFunc("POST /v1/farm", s.wrap("farm.start", false, s.sharded(s.farmRouteKey, s.handleFarmStart)))
	s.mux.HandleFunc("GET /v1/farm", s.wrap("farm.list", false, s.handleFarmList))
	s.mux.HandleFunc("GET /v1/farm/{id}", s.wrap("farm.get", false, s.handleFarmGet))
	s.mux.HandleFunc("GET /v1/farm/{id}/findings", s.wrap("farm.findings", false, s.handleFarmFindings))
}

// begin registers a request for draining accounting, refusing it when the
// server is shutting down. The WaitGroup Add happens under the read lock so
// Shutdown's Wait can never start between the draining check and the Add.
func (s *Server) begin() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// Shutdown is the two-phase drain: refuse new requests, wait for in-flight
// ones (or ctx), then drain the job workers — interrupted attempts are
// checkpointed back to queued in the WAL so a restart re-runs them. The
// session store is closed either way.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	defer s.sessions.close()
	defer func() { _ = s.traces.Close() }()
	if s.cluster != nil {
		defer s.cluster.Close()
	}
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if jerr := s.jobs.Close(ctx); err == nil {
		err = jerr
	}
	// After the job workers drain: no attempt can append a finding, so the
	// farm's log closes cleanly.
	if ferr := s.farm.close(); err == nil {
		err = ferr
	}
	// After the job workers drain: the advisor stops its harvest worker
	// (ingesting what was already queued) and closes the outcome log.
	if aerr := s.advisor.Close(); err == nil {
		err = aerr
	}
	return err
}

// statusRecorder captures the response status for route metrics and logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// TraceIDHeader echoes the request's trace identity back to the client, so
// a caller (or a smoke test) can immediately query /v1/traces/{id}.
const TraceIDHeader = "X-Optd-Trace-Id"

// tracedRoute excludes the observability plumbing itself from the trace
// store: scrapes and trace queries would otherwise crowd the sample with
// spans about reading spans.
func tracedRoute(route string) bool {
	switch route {
	case "healthz", "metrics", "version", "traces.list", "traces.get":
		return false
	}
	return true
}

// wrap is the common middleware: draining gate, in-flight accounting,
// per-route metrics and latency histograms, request IDs, distributed-trace
// ingress, a request-scoped structured logger, panic recovery, optional
// admission control and the per-request timeout for heavy (admit=true)
// routes.
func (s *Server) wrap(route string, admit bool, h func(w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	return func(rw http.ResponseWriter, r *http.Request) {
		if !s.begin() {
			s.metrics.RejectedDraining.Add(1)
			// This instance is going away; tell well-behaved clients when a
			// replacement is likely to be answering.
			rw.Header().Set("Retry-After", "5")
			writeError(rw, http.StatusServiceUnavailable, "draining", "server is shutting down")
			return
		}
		defer s.inflight.Done()
		s.metrics.CountRoute(route)
		s.metrics.InFlight.Add(1)
		defer s.metrics.InFlight.Add(-1)

		// Honor a propagated request ID (one-hop forwards, replay sweeps) so
		// every node a request touches logs the same identity; mint only at
		// the true ingress. The length cap keeps hostile values out of logs.
		reqID := strings.TrimSpace(r.Header.Get("X-Request-ID"))
		if reqID == "" || len(reqID) > 64 {
			reqID = fmt.Sprintf("%08x", s.reqSeq.Add(1))
		}
		rw.Header().Set("X-Request-ID", reqID)
		if s.cluster != nil {
			// Forwarded responses overwrite this with the executing node's
			// value when copying headers back, so the client always sees
			// where the work actually ran.
			rw.Header().Set(ServedByHeader, s.cluster.Self())
		}
		logger := s.cfg.Logger.With(slog.String("req_id", reqID), slog.String("route", route))

		// Trace ingress: join the caller's trace when a valid traceparent
		// arrived (a forwarded hop, a replay sweep), mint a fresh trace ID
		// otherwise. The keep decision happens at completion, in the tail
		// sampler — every request is traced while in flight.
		var frag *trace.Fragment
		if s.traces != nil && tracedRoute(route) {
			parent, _ := trace.ParseTraceparent(r.Header.Get(trace.TraceparentHeader))
			node := ""
			if s.cluster != nil {
				node = s.cluster.Self()
			}
			frag = trace.NewFragment(parent, "server."+route, node)
			rw.Header().Set(TraceIDHeader, frag.TraceID())
			logger = logger.With(slog.String("trace_id", frag.TraceID()))
		}

		w := &statusRecorder{ResponseWriter: rw}
		t0 := time.Now()
		defer func() {
			d := time.Since(t0)
			status := w.status
			if status == 0 {
				status = http.StatusOK
			}
			// Completed fragment → tail sampler. The latency exemplar is
			// attached only when the trace was kept: an exemplar pointing at
			// a dropped trace would be a dead link.
			exemplar := ""
			if frag != nil {
				frag.Root().SetStatus(status)
				if s.traces.Record(route, frag.Spans()) != trace.DecisionDropped {
					exemplar = frag.TraceID()
				}
			}
			s.metrics.RouteDone(route, d, exemplar)
			logger.Info("request", slog.Int("status", status), slog.Int64("duration_us", d.Microseconds()))
		}()

		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.PanicsRecovered.Add(1)
				logger.Error("panic recovered", slog.Any("panic", rec))
				debug.PrintStack()
				writeError(w, http.StatusInternalServerError, "panic", "internal error: optimizer panicked")
			}
		}()
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		ctx = obs.ContextWithLogger(ctx, logger)
		ctx = trace.ContextWithRequestID(ctx, reqID)
		if frag != nil {
			ctx = trace.ContextWithFragment(ctx, frag, frag.Root())
		}
		r = r.WithContext(ctx)
		if admit {
			if err := s.limiter.Acquire(r.Context()); err != nil {
				s.metrics.RejectedOverload.Add(1)
				// Capacity frees as in-flight optimizations finish; a short
				// backoff is enough.
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusServiceUnavailable, "overloaded", "no capacity within the request deadline")
				return
			}
			defer s.limiter.Release()
		}
		if err := h(w, r); err != nil {
			var he *httpErr
			if errors.As(err, &he) {
				writeJSON(w, he.status, he.body)
				return
			}
			writeError(w, http.StatusInternalServerError, "internal", err.Error())
		}
	}
}

// apiError is the structured error body every non-200 response carries.
type apiError struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
	// Pass and Applications qualify iteration_limit errors: which pass hit
	// the cap and how many applications it had performed.
	Pass         string `json:"pass,omitempty"`
	Applications int    `json:"applications,omitempty"`
}

func writeError(w http.ResponseWriter, status int, kind, msg string) {
	writeJSON(w, status, apiError{Error: msg, Kind: kind})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	return nil
}

// handleMetrics serves the counter set. The default (and "application/json")
// representation is the JSON snapshot, kept shape-stable for existing
// scrapers; an Accept header naming text/plain or openmetrics selects the
// Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	accept := r.Header.Get("Accept")
	if strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics") {
		w.Header().Set("Content-Type", obs.ContentType)
		w.WriteHeader(http.StatusOK)
		// A write error here means the scraper hung up; the status line is
		// already out, so there is nothing useful to report back.
		_ = s.metrics.WriteProm(w)
		return nil
	}
	writeJSON(w, http.StatusOK, s.metrics.Snapshot())
	return nil
}
