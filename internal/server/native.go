package server

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"time"

	"repro/internal/frontend"
	"repro/internal/nativecache"
	"repro/internal/specs"
	"repro/internal/trace"
	"repro/ir"
	"repro/optlib"
)

// Engine values for Config.Engine (and the -engine flag).
const (
	// EngineInterp runs every pipeline on the interpreted closure engine
	// (the seed behavior; also selected by an empty Config.Engine).
	EngineInterp = "interp"
	// EngineAuto serves from compiled artifacts whenever one is loaded and
	// falls back to the interpreter transparently otherwise.
	EngineAuto = "auto"
	// EngineCompiled is EngineAuto plus a startup guarantee: the artifact
	// covering every built-in optimization is built (or loaded) before the
	// server accepts traffic, and New fails if it cannot be.
	EngineCompiled = "compiled"
)

// ValidEngine reports whether s names an engine mode.
func ValidEngine(s string) bool {
	switch s {
	case "", EngineInterp, EngineAuto, EngineCompiled:
		return true
	}
	return false
}

// EngineHeader is the response header naming the engine that produced the
// response body: "interp", "compiled-plugin" or "compiled-subprocess".
const EngineHeader = "X-Optd-Engine"

// native is the server's compiled-optimizer selection layer. nil when the
// engine is interp (or the artifact cache could not be opened under auto).
type native struct {
	cache   *nativecache.Cache
	builtin nativecache.SpecSet // all built-in specs; one artifact serves every opts-only request
}

// newNative opens the artifact cache and schedules (auto) or completes
// (compiled) the built-in artifact's build.
func newNative(cfg Config, m *Metrics) (*native, error) {
	dir := cfg.NativeDir
	if dir == "" {
		d, err := nativecache.DefaultDir()
		if err != nil {
			return nil, err
		}
		dir = d
	}
	nc, err := nativecache.New(nativecache.Config{
		Dir:    dir,
		Logger: cfg.Logger,
		Obs:    m.nativeObs(),
	})
	if err != nil {
		return nil, err
	}
	n := &native{cache: nc, builtin: nativecache.NewSpecSet(specs.Sources)}
	if cfg.Engine == EngineCompiled {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		defer cancel()
		if _, err := nc.Ensure(ctx, n.builtin, nativecache.ModeAuto); err != nil {
			nc.Close()
			return nil, err
		}
	} else {
		nc.EnsureAsync(n.builtin, nativecache.ModeAuto, nil)
	}
	return n, nil
}

func (n *native) close() {
	if n != nil {
		n.cache.Close()
	}
}

// nativeError carries a compiled-pipeline failure with enough context for
// both handler classification and job retry semantics. The wrapped err
// preserves errors.Is identity for optlib.ErrIterationLimit and context
// errors; parse marks MiniF parse failures (a client error, never the
// engine's fault).
type nativeError struct {
	err   error
	pass  string
	apps  int
	parse bool
}

// nativeSet maps a request onto the spec set its artifact must cover and
// the pass names to run in order. ok is false when the request cannot be
// expressed as one compiled artifact (an inline spec shadowing a different
// source under the same name).
func (s *Server) nativeSet(req *OptimizeRequest) (set nativecache.SpecSet, passNames []string, ok bool) {
	names, err := canonOpts(req.Opts)
	if err != nil {
		return set, nil, false // interp path reports the error
	}
	passNames = names
	if len(req.Specs) == 0 {
		if len(passNames) == 0 {
			return set, nil, false
		}
		return s.native.builtin, passNames, true
	}
	sources := make(map[string]string, len(specs.Sources)+len(req.Specs))
	for n, src := range specs.Sources {
		sources[n] = src
	}
	for _, st := range req.Specs {
		name := strings.ToUpper(strings.TrimSpace(st.Name))
		if name == "" {
			return set, nil, false
		}
		if prev, exists := sources[name]; exists && prev != st.Text {
			// A name collision (with a built-in or another inline spec)
			// cannot live in one registry; let the interpreter handle it.
			return set, nil, false
		}
		sources[name] = st.Text
		passNames = append(passNames, name)
	}
	return nativecache.NewSpecSet(sources), passNames, true
}

// tryNative serves one optimize request from a compiled artifact. ok=false
// means "serve interpreted" — the engine is off, the request is ineligible
// (tracing, recompute toggles), or no artifact is loaded yet (its build is
// scheduled in the background and counted as a fallback). When ok is true
// the request was definitively handled: either resp or nerr is set.
func (s *Server) tryNative(ctx context.Context, req *OptimizeRequest, wantTrace bool) (*OptimizeResponse, *nativeError, bool) {
	if s.native == nil || wantTrace || (req.Recompute != nil && !*req.Recompute) {
		return nil, nil, false
	}
	set, passNames, ok := s.nativeSet(req)
	if !ok {
		return nil, nil, false
	}
	art, loaded := s.native.cache.Lookup(set)
	if !loaded || !art.Covers(passNames) {
		s.metrics.NativeFallbacks.Add(1)
		s.native.cache.EnsureAsync(set, nativecache.ModeAuto, nil)
		return nil, nil, false
	}
	maxIter := req.MaxIterations
	if maxIter <= 0 {
		maxIter = s.cfg.MaxIterations
	}
	if art.InProcess() {
		sp, ctx := trace.Start(ctx, "native.plugin")
		resp, nerr := s.runNativePlugin(ctx, art, req.Source, passNames, maxIter)
		if nerr != nil {
			sp.SetError(nerr.err.Error())
		}
		sp.End()
		return resp, nerr, true
	}
	// The subprocess hop carries the trace context in TRACEPARENT (set by
	// RunPipeline from this span's context).
	sp, ctx := trace.Start(ctx, "native.subprocess")
	resp, nerr := s.runNativeSubprocess(ctx, art, req.Source, passNames, maxIter)
	if nerr != nil {
		sp.SetError(nerr.err.Error())
	}
	sp.End()
	return resp, nerr, true
}

func (s *Server) runNativePlugin(ctx context.Context, art *nativecache.Artifact, source string, passNames []string, maxIter int) (*OptimizeResponse, *nativeError) {
	t0 := time.Now()
	prog, err := frontend.Parse(source)
	if err != nil {
		return nil, &nativeError{err: err, parse: true}
	}
	parseUS := time.Since(t0).Microseconds()
	passes := make([]optlib.NamedApply, len(passNames))
	for i, name := range passNames {
		fn, _ := art.Func(name) // Covers checked by the caller
		passes[i] = optlib.NamedApply{Name: name, Apply: fn}
	}
	counts, err := optlib.PipelineCtx(ctx, prog, passes, optlib.Limits{MaxIterations: maxIter})
	results := make([]PassResult, len(counts))
	for i, ct := range counts {
		results[i] = PassResult{Name: ct.Name, Applications: ct.Applications, DurationUS: ct.Duration.Microseconds()}
		s.metrics.PassDone(ct.Name, ct.Applications, ct.Duration)
	}
	if err != nil {
		last := counts[len(counts)-1] // PipelineCtx appends the failing pass
		return nil, &nativeError{err: err, pass: last.Name, apps: last.Applications}
	}
	s.metrics.NativeServedPlugin.Add(1)
	return &OptimizeResponse{
		MiniF:        ir.ToMiniF(prog),
		IR:           prog.String(),
		Applications: results,
		ParseUS:      parseUS,
		TotalUS:      time.Since(t0).Microseconds(),
		Engine:       "compiled-plugin",
	}, nil
}

// runNativeSubprocess runs the pipeline through the artifact's runner
// binary.
func (s *Server) runNativeSubprocess(ctx context.Context, art *nativecache.Artifact, source string, passNames []string, maxIter int) (*OptimizeResponse, *nativeError) {
	t0 := time.Now()
	res, err := art.RunPipeline(ctx, source, passNames, maxIter)
	if err != nil {
		// Context errors keep their identity for classification/retry; an
		// unrunnable artifact is an internal pipeline error.
		return nil, &nativeError{err: err, pass: firstName(passNames)}
	}
	results := make([]PassResult, len(res.Passes))
	for i, ct := range res.Passes {
		results[i] = PassResult{Name: ct.Name, Applications: ct.Applications, DurationUS: ct.DurationUS}
		s.metrics.PassDone(ct.Name, ct.Applications, time.Duration(ct.DurationUS)*time.Microsecond)
	}
	if perr := res.PipelineError(); perr != nil {
		if res.ErrKind == "parse" {
			return nil, &nativeError{err: errors.New(res.Err), parse: true}
		}
		nerr := &nativeError{err: perr, pass: firstName(passNames)}
		if len(res.Passes) > 0 {
			last := res.Passes[len(res.Passes)-1]
			nerr.pass, nerr.apps = last.Name, last.Applications
		}
		return nil, nerr
	}
	s.metrics.NativeServedSubprocess.Add(1)
	return &OptimizeResponse{
		MiniF:        res.MiniF,
		IR:           res.IR,
		Applications: results,
		ParseUS:      res.ParseUS,
		TotalUS:      time.Since(t0).Microseconds(),
		Engine:       "compiled-subprocess",
	}, nil
}

func firstName(names []string) string {
	if len(names) == 0 {
		return "?"
	}
	return names[0]
}

// setEngineHeader stamps the engine that produced the response body.
func setEngineHeader(w http.ResponseWriter, engine string) {
	if engine == "" {
		engine = EngineInterp
	}
	w.Header().Set(EngineHeader, engine)
}
