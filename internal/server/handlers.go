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
	"repro/internal/gospel"
	"repro/internal/obs"
	"repro/internal/specs"
	"repro/internal/trace"
	"repro/ir"
	"repro/optlib"
)

// httpErr carries a status code and structured body out of a handler.
type httpErr struct {
	status int
	body   apiError
}

func (e *httpErr) Error() string { return e.body.Error }

func failf(status int, kind, format string, args ...any) *httpErr {
	return &httpErr{status: status, body: apiError{Error: fmt.Sprintf(format, args...), Kind: kind}}
}

// SpecText is an inline GOSpeL specification shipped with a request.
type SpecText struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

// OptimizeRequest is the body of POST /v1/optimize.
type OptimizeRequest struct {
	// Source is the MiniF program text.
	Source string `json:"source"`
	// Opts names built-in optimizations, applied in order, each to fixpoint.
	Opts []string `json:"opts"`
	// Specs are inline GOSpeL specifications applied after Opts.
	Specs []SpecText `json:"specs,omitempty"`
	// MaxIterations caps each pass; 0 selects the server default.
	MaxIterations int `json:"max_iterations,omitempty"`
	// Recompute mirrors the constructor's dependence-recomputation toggle;
	// nil means true.
	Recompute *bool `json:"recompute,omitempty"`
	// NoCache bypasses the result cache (reads and writes).
	NoCache bool `json:"no_cache,omitempty"`
	// Order is the pass-order directive: "" (run opts as listed, no
	// stamping), "default" (same, stamped), "auto" (ask the advisor), or an
	// explicit comma-separated permutation of opts. The ?order= query
	// parameter overrides this field.
	Order string `json:"order,omitempty"`
}

// PassResult reports one optimization pass of a pipeline.
type PassResult struct {
	Name         string `json:"name"`
	Applications int    `json:"applications"`
	DurationUS   int64  `json:"duration_us"`
}

// OptimizeResponse is the body of a successful POST /v1/optimize.
type OptimizeResponse struct {
	// MiniF is the optimized program as re-parsable MiniF source.
	MiniF string `json:"minif"`
	// IR is the numbered IR dump of the optimized program.
	IR           string       `json:"ir"`
	Applications []PassResult `json:"applications"`
	ParseUS      int64        `json:"parse_us"`
	TotalUS      int64        `json:"total_us"`
	// Cached reports whether this response came from the result cache.
	Cached bool `json:"cached"`
	// Engine names the execution engine that produced the body: "interp",
	// "compiled-plugin" or "compiled-subprocess". Omitted (meaning interp)
	// on servers that never enable the native engine, keeping the wire
	// shape unchanged for existing clients.
	Engine string `json:"engine,omitempty"`
	// Order is the effective pass order, present only when the request
	// carried an order directive (also stamped in X-Optd-Order).
	Order []string `json:"order,omitempty"`
	// Trace is the span forest of the optimization run — one "pass" root per
	// pipeline stage with match/depend/action children per candidate point.
	// Present only when the request asked for it with ?trace=1.
	Trace []*obs.Node `json:"trace,omitempty"`
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		return failf(http.StatusBadRequest, "bad_json", "invalid request body: %v", err)
	}
	return nil
}

// canonOpts uppercases and trims the requested optimization names and
// verifies each one exists, before any work starts.
func canonOpts(names []string) ([]string, error) {
	out := make([]string, 0, len(names))
	for _, n := range names {
		n = strings.ToUpper(strings.TrimSpace(n))
		if n == "" {
			continue
		}
		if _, ok := specs.Sources[n]; !ok {
			return nil, failf(http.StatusBadRequest, "unknown_optimization",
				"unknown optimization %q (have %s)", n, strings.Join(specs.Names(), ", "))
		}
		out = append(out, n)
	}
	return out, nil
}

// pass is one compiled pipeline stage.
type pass struct {
	name string
	opt  *engine.Optimizer
}

// compilePasses builds the request's pipeline: built-in opts in order, then
// inline GOSpeL specs. Compilation failures are client errors. A non-nil
// tracer records one span tree per pass for the inline-trace response.
func (s *Server) compilePasses(req *OptimizeRequest, timing engine.PassTimingFunc, tracer *obs.Tracer) ([]pass, error) {
	maxIter := req.MaxIterations
	if maxIter <= 0 {
		maxIter = s.cfg.MaxIterations
	}
	eopts := []engine.Option{
		engine.WithPassTiming(timing),
		engine.WithPassStats(s.metrics.PassObserved),
	}
	if tracer != nil {
		eopts = append(eopts, engine.WithTracer(tracer))
	}
	if maxIter > 0 {
		eopts = append(eopts, engine.WithMaxApplications(maxIter))
	}
	if req.Recompute != nil && !*req.Recompute {
		eopts = append(eopts, engine.WithoutRecompute())
	}
	names, err := canonOpts(req.Opts)
	if err != nil {
		return nil, err
	}
	var passes []pass
	for _, name := range names {
		o, err := engine.Compile(s.builtins[name], eopts...)
		if err != nil {
			return nil, failf(http.StatusInternalServerError, "internal", "built-in %s failed to compile: %v", name, err)
		}
		passes = append(passes, pass{name: name, opt: o})
	}
	for _, st := range req.Specs {
		name := strings.ToUpper(strings.TrimSpace(st.Name))
		if name == "" {
			return nil, failf(http.StatusBadRequest, "spec_error", "inline spec needs a name")
		}
		spec, err := gospel.ParseAndCheck(name, st.Text)
		if err != nil {
			return nil, failf(http.StatusUnprocessableEntity, "spec_error", "spec %s: %v", name, err)
		}
		o, err := engine.Compile(spec, eopts...)
		if err != nil {
			return nil, failf(http.StatusUnprocessableEntity, "spec_error", "spec %s: %v", name, err)
		}
		passes = append(passes, pass{name: name, opt: o})
	}
	if len(passes) == 0 {
		return nil, failf(http.StatusBadRequest, "bad_request", "request needs at least one optimization in opts or specs")
	}
	return passes, nil
}

// cacheKey renders the content address of an optimize request. It must run
// after resolveOrder: req.Opts then holds the *effective* pass order (so an
// advisor-chosen order and the default order for the same program are
// distinct entries) and req.Order the normalized directive (so a stamped
// body is never replayed to a directive-free request, and vice versa).
func (req *OptimizeRequest) cacheKey() string {
	parts := []string{"optimize/v1", req.Source, strings.Join(req.Opts, ",")}
	for _, st := range req.Specs {
		parts = append(parts, st.Name, st.Text)
	}
	parts = append(parts, fmt.Sprint(req.MaxIterations))
	parts = append(parts, fmt.Sprint(req.Recompute == nil || *req.Recompute))
	parts = append(parts, req.Order)
	return CacheKey(parts...)
}

// classify maps pipeline errors to structured API errors.
func (s *Server) classify(err error, passName string, apps int) *httpErr {
	switch {
	case errors.Is(err, optlib.ErrIterationLimit):
		s.metrics.IterationLimitAborts.Add(1)
		return &httpErr{status: http.StatusUnprocessableEntity, body: apiError{
			Error: fmt.Sprintf("pass %s hit its iteration limit after %d application(s)", passName, apps),
			Kind:  "iteration_limit", Pass: passName, Applications: apps,
		}}
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.Timeouts.Add(1)
		return failf(http.StatusGatewayTimeout, "timeout", "request deadline exceeded during pass %s", passName)
	case errors.Is(err, context.Canceled):
		return failf(499, "canceled", "request canceled during pass %s", passName)
	default:
		return failf(http.StatusUnprocessableEntity, "optimize_error", "pass %s: %v", passName, err)
	}
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) error {
	var req OptimizeRequest
	if err := decodeBody(r, &req); err != nil {
		return err
	}
	if strings.TrimSpace(req.Source) == "" {
		return failf(http.StatusBadRequest, "bad_request", "request needs a MiniF program in source")
	}

	// ?trace=1 asks for the span forest inline in the response. Tracing
	// bypasses the cache both ways: a cached body has no trace, and a traced
	// body must not be served to untraced requests.
	wantTrace := r.URL.Query().Get("trace") == "1"
	var tracer *obs.Tracer
	if wantTrace {
		tracer = obs.NewTracer(obs.Collect(), obs.WithLogger(obs.LoggerFrom(r.Context())))
	}

	// The order directive resolves before the cache key is computed: the
	// effective order is part of the content address.
	if q := r.URL.Query().Get("order"); q != "" {
		req.Order = q
	}
	order, err := s.resolveOrder(r.Context(), &req, tracer)
	if err != nil {
		return err
	}
	root := trace.SpanFrom(r.Context())
	if len(order) > 0 {
		root.Set("order", req.Order)
	}

	var key string
	if !req.NoCache && !wantTrace {
		key = req.cacheKey()
		if raw, ok := s.cache.Get(key); ok {
			s.metrics.CacheHits.Add(1)
			var resp OptimizeResponse
			if err := json.Unmarshal(raw, &resp); err == nil {
				resp.Cached = true
				root.Set("cache", "hit")
				setEngineHeader(w, resp.Engine)
				setOrderHeader(w, resp.Order)
				writeJSON(w, http.StatusOK, resp)
				return nil
			}
		}
		s.metrics.CacheMisses.Add(1)
	}

	// The compiled fast path: when a native artifact covering the whole
	// pipeline is loaded, serve from it and skip the interpreted engine
	// entirely. Any reason it cannot (engine off, tracing, artifact still
	// building, load failure) falls through to the interpreter below.
	if nresp, nerr, served := s.tryNative(r.Context(), &req, wantTrace); served {
		if nerr != nil {
			if nerr.parse {
				return failf(http.StatusUnprocessableEntity, "parse_error", "%v", nerr.err)
			}
			return s.classify(nerr.err, nerr.pass, nerr.apps)
		}
		root.Set("engine", nresp.Engine)
		if s.cfg.testHook != nil {
			if err := s.cfg.testHook(r.Context()); err != nil {
				return s.classify(err, "testhook", 0)
			}
		}
		nresp.Order = order
		if !req.NoCache && !wantTrace {
			if raw, err := json.Marshal(nresp); err == nil {
				s.cache.Put(key, raw)
			}
		}
		s.harvestOptimize(&req, nresp)
		setEngineHeader(w, nresp.Engine)
		setOrderHeader(w, order)
		writeJSON(w, http.StatusOK, *nresp)
		return nil
	}

	var results []PassResult
	var current string // pass currently running, for error reporting
	timing := func(spec string, apps int, d time.Duration) {
		results = append(results, PassResult{Name: spec, Applications: apps, DurationUS: d.Microseconds()})
	}
	passes, err := s.compilePasses(&req, timing, tracer)
	if err != nil {
		return err
	}

	if s.cfg.testHook != nil {
		if err := s.cfg.testHook(r.Context()); err != nil {
			return s.classify(err, "testhook", 0)
		}
	}

	root.Set("engine", EngineInterp)
	t0 := time.Now()
	psp, _ := trace.Start(r.Context(), "parse")
	prog, err := frontend.Parse(req.Source)
	psp.End()
	if err != nil {
		psp.SetError(err.Error())
		return failf(http.StatusUnprocessableEntity, "parse_error", "%v", err)
	}
	parseUS := time.Since(t0).Microseconds()

	var g *dep.Graph // carried from pass to pass
	for _, ps := range passes {
		current = ps.name
		sp, _ := trace.Start(r.Context(), "pass."+ps.name)
		var apps []engine.Application
		apps, g, err = ps.opt.ApplyAllWith(r.Context(), prog, g)
		sp.Set("applications", strconv.Itoa(len(apps)))
		sp.End()
		if err != nil {
			sp.SetError(err.Error())
			return s.classify(err, current, len(apps))
		}
	}

	resp := OptimizeResponse{
		MiniF:        ir.ToMiniF(prog),
		IR:           prog.String(),
		Applications: results,
		ParseUS:      parseUS,
		TotalUS:      time.Since(t0).Microseconds(),
		Order:        order,
		Trace:        tracer.Trees(),
	}
	if s.native != nil {
		// Name the engine only on servers where the answer can vary.
		resp.Engine = EngineInterp
	}
	if !req.NoCache && !wantTrace {
		if raw, err := json.Marshal(resp); err == nil {
			s.cache.Put(key, raw)
		}
	}
	s.harvestOptimize(&req, &resp)
	setEngineHeader(w, resp.Engine)
	setOrderHeader(w, order)
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// PointsRequest is the body of POST /v1/points.
type PointsRequest struct {
	Source string `json:"source"`
	// Opts restricts the census; empty means the paper's ten optimizations.
	Opts []string `json:"opts,omitempty"`
	// PatternOnly counts points matching the code pattern alone, skipping
	// Depend clauses (the dependence-override view).
	PatternOnly bool `json:"pattern_only,omitempty"`
}

// PointsResponse maps optimization name to application-point count.
type PointsResponse struct {
	Points map[string]int `json:"points"`
	Cached bool           `json:"cached"`
}

func (s *Server) handlePoints(w http.ResponseWriter, r *http.Request) error {
	var req PointsRequest
	if err := decodeBody(r, &req); err != nil {
		return err
	}
	if strings.TrimSpace(req.Source) == "" {
		return failf(http.StatusBadRequest, "bad_request", "request needs a MiniF program in source")
	}
	names := req.Opts
	if len(names) == 0 {
		names = specs.Ten
	}
	names, err := canonOpts(names)
	if err != nil {
		return err
	}
	key := CacheKey(append([]string{"points/v1", req.Source, fmt.Sprint(req.PatternOnly)}, names...)...)
	if raw, ok := s.cache.Get(key); ok {
		s.metrics.CacheHits.Add(1)
		var resp PointsResponse
		if err := json.Unmarshal(raw, &resp); err == nil {
			resp.Cached = true
			writeJSON(w, http.StatusOK, resp)
			return nil
		}
	}
	s.metrics.CacheMisses.Add(1)
	prog, err := frontend.Parse(req.Source)
	if err != nil {
		return failf(http.StatusUnprocessableEntity, "parse_error", "%v", err)
	}
	g := dep.Compute(prog)
	resp := PointsResponse{Points: map[string]int{}}
	for _, name := range names {
		if err := r.Context().Err(); err != nil {
			return s.classify(err, name, 0)
		}
		o, err := engine.Compile(s.builtins[name])
		if err != nil {
			return failf(http.StatusInternalServerError, "internal", "built-in %s failed to compile: %v", name, err)
		}
		if req.PatternOnly {
			resp.Points[name] = len(o.PreconditionsPatternOnly(prog, g))
		} else {
			resp.Points[name] = len(o.Preconditions(prog, g))
		}
	}
	if raw, err := json.Marshal(resp); err == nil {
		s.cache.Put(key, raw)
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}
