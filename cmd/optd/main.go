// Command optd is the long-running optimization service: the paper's
// constructor-built optimizer interface served over HTTP/JSON instead of a
// one-shot CLI. It exposes the full parse → dependence-compute → optimize →
// MiniF pipeline statelessly and through stateful constructor sessions.
//
// Endpoints:
//
//	GET  /healthz                      liveness
//	GET  /metrics                      counters — JSON by default, Prometheus
//	                                   text format with Accept: text/plain
//	POST /v1/optimize                  {source, opts, specs?, max_iterations?} → optimized MiniF/IR
//	                                   (?trace=1 adds the span tree inline)
//	POST /v1/points                    {source, opts?} → application-point census
//	POST /v1/session                   create an interactive constructor session
//	GET  /v1/session/{id}/points?opt=X candidate application points
//	POST /v1/session/{id}/apply        apply at a point (override dependences with {"override":true})
//	POST /v1/session/{id}/skip         exclude a point from applyall
//	POST /v1/session/{id}/applyall     fixpoint over the remaining points
//	POST /v1/session/{id}/recompute    toggle dependence recomputation
//	GET  /v1/session/{id}/result       fetch the optimized program
//	DELETE /v1/session/{id}            end the session
//	POST /v1/jobs                      submit a batch optimization job (202 + job ID)
//	GET  /v1/jobs                      list jobs (?state=, ?limit=, ?before= cursor)
//	GET  /v1/jobs/{id}                 job status (?wait=1 long-polls to terminal)
//	GET  /v1/jobs/{id}/result          fetch a finished job's result
//	DELETE /v1/jobs/{id}               cancel a job
//	GET  /v1/version                   build/runtime identity (module, go, codegen, ring)
//	GET  /v1/traces                    list stored traces (?route=, ?engine=, ?order=,
//	                                   ?status=, ?error=1, ?min_duration_ms=, ?limit=)
//	GET  /v1/traces/{id}               full span forest for one trace ID, merged from
//	                                   every cluster peer (?local=1 restricts to this node)
//	POST /v1/farm                      start a differential fuzzing campaign (202 + campaign ID)
//	GET  /v1/farm                      list campaigns and the persisted finding count
//	GET  /v1/farm/{id}                 campaign progress (?wait=1 long-polls to done)
//	GET  /v1/farm/{id}/findings        minimized divergence findings for one campaign
//
// Jobs are durable when -jobs-dir is set: every state transition is
// journaled to a write-ahead log, and a restart replays it — jobs caught
// mid-run by a crash or kill -9 are requeued and complete. Without
// -jobs-dir the queue is in-memory only.
//
// With -peers (and -advertise naming this node's entry in that list) optd
// runs sharded: a consistent-hash ring routes each content-addressed
// request — POST /v1/optimize and POST /v1/jobs — to its owning node, the
// server proxies requests that arrive elsewhere (one hop, deadline
// propagated, single-retry failover to the ring successor when the owner
// is down), and job-status routes answer with a one-hop 307 to the job's
// owner. Per-peer health comes from probing /healthz with exponential
// backoff on down peers.
//
// -engine selects how optimization pipelines execute: auto (the default)
// serves from ahead-of-time compiled optimizer artifacts once they are
// built, falling back to the interpreted engine transparently; interp
// forces interpretation; compiled additionally refuses to start until the
// artifact covering every built-in optimization is built or loaded.
// Artifacts are cached content-addressed under -native-dir and every
// response names its engine in the X-Optd-Engine header.
//
// A pass-ordering advisor learns from every completed run: requests with
// "order":"auto" (or ?order=auto) are scheduled with the pass order that
// historically applied the most optimizations to the nearest similar
// programs, falling back to the requested order when history is thin. The
// outcome store is durable under -advisor-dir; `optd -advisor-replay URL`
// re-submits the standing example/proggen corpus as low-priority jobs
// against a live instance to keep that history fresh, then exits.
//
// POST /v1/farm runs the differential fuzzing farm through the same job
// queue: generated programs (content-addressed campaigns, idempotent
// resubmission) are swept as low-priority jobs through the reference
// interpreter and several optimizer configurations, and any divergence is
// minimized and persisted — durably under -farm-dir — for
// /v1/farm/{id}/findings.
//
// Every request is traced: the server joins a W3C-style Traceparent header
// when one arrives (one-hop forwards, replay sweeps) and mints a fresh
// trace otherwise, threading spans through job queues, the advisor and
// compiled-engine subprocesses. A tail sampler keeps every error and
// slow-percentile trace plus 1 in -trace-sample of the rest in a bounded
// per-node store (-trace-store fragments, optionally spilled under
// -trace-dir), queryable via /v1/traces. Latency histograms carry exemplar
// trace IDs in the Prometheus exposition.
//
// Results are cached content-addressed (SHA-256 of source, opt sequence,
// spec text and limits) in a bounded LRU; concurrency is bounded by an
// admission limiter; every request carries a deadline; optimizer panics
// become 500s without killing the daemon; SIGINT/SIGTERM drain in-flight
// requests while refusing new ones.
//
// Logs are structured (log/slog); -logfmt selects text (default) or json.
// -debug-addr starts a second listener serving net/http/pprof under
// /debug/pprof/ — kept off the public address so profiling endpoints are
// never exposed to API clients.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8724", "listen address")
		debugAddr = flag.String("debug-addr", "", "pprof/debug listen address (empty disables)")
		logfmt    = flag.String("logfmt", "text", "log format: text or json")
		workers   = flag.Int("workers", 0, "max concurrent optimization requests (0 = GOMAXPROCS)")
		cacheN    = flag.Int("cache", 256, "result cache entries (0 disables)")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request deadline")
		maxIter   = flag.Int("maxiter", 0, "default per-pass application cap (0 = optlib default, 1000)")
		maxBody   = flag.Int64("max-body", 1<<20, "max request body bytes")
		sessions  = flag.Int("sessions", 64, "max live constructor sessions")
		ttl       = flag.Duration("session-ttl", 30*time.Minute, "idle session lifetime")
		drain     = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")

		jobsDir     = flag.String("jobs-dir", "", "batch-job WAL directory (empty = in-memory queue)")
		jobsWorkers = flag.Int("jobs-workers", 0, "max concurrently running batch jobs (0 = GOMAXPROCS)")
		jobsRetries = flag.Int("jobs-retries", 2, "default re-run budget after a job's first attempt")

		peers     = flag.String("peers", "", "comma-separated cluster member addresses (host:port, including this node); empty = single node")
		advertise = flag.String("advertise", "", "this node's address as it appears in -peers (required with -peers)")

		engine    = flag.String("engine", "auto", "optimizer engine: auto (serve from compiled artifacts when loaded, interpret otherwise), interp, or compiled (require the built-in artifact before accepting traffic)")
		nativeDir = flag.String("native-dir", "", "compiled-artifact cache directory (empty = the user cache dir)")

		advisorDir    = flag.String("advisor-dir", "", "pass-ordering advisor outcome-store directory (empty = memory-only history)")
		advisorK      = flag.Int("advisor-k", 0, "advisor k-NN neighborhood size (0 = default, 8)")
		advisorMin    = flag.Int("advisor-min", 0, "advisor minimum neighbors before it recommends instead of falling back (0 = default, 3)")
		advisorMax    = flag.Int("advisor-max-records", 0, "advisor outcome-store record cap before compaction (0 = default, 4096)")
		advisorReplay = flag.String("advisor-replay", "", "optd base URL: instead of serving, re-submit the freshness corpus as low-priority jobs against that instance, wait, and exit")

		traceStore  = flag.Int("trace-store", 0, "retained trace fragments per node (0 = default, 1024; negative disables tracing)")
		traceSample = flag.Int("trace-sample", 0, "tail-sample 1 in N unremarkable traces; errors and slow traces are always kept (0 = default, 16; 1 keeps everything)")
		traceDir    = flag.String("trace-dir", "", "spill kept trace fragments to a CRC-framed log in this directory (empty = memory only)")

		farmDir = flag.String("farm-dir", "", "fuzzing-farm finding-store directory (empty = findings are memory-only)")
	)
	flag.Parse()
	if *workers < 0 {
		fmt.Fprintln(os.Stderr, "optd: -workers must be >= 0")
		os.Exit(2)
	}
	if *logfmt != "text" && *logfmt != "json" {
		fmt.Fprintf(os.Stderr, "optd: -logfmt must be text or json (got %q)\n", *logfmt)
		os.Exit(2)
	}
	if !server.ValidEngine(*engine) {
		fmt.Fprintf(os.Stderr, "optd: -engine must be auto, interp or compiled (got %q)\n", *engine)
		os.Exit(2)
	}
	if *advisorK < 0 || *advisorMin < 0 || *advisorMax < 0 {
		fmt.Fprintln(os.Stderr, "optd: -advisor-k, -advisor-min and -advisor-max-records must be >= 0")
		os.Exit(2)
	}
	if *traceSample < 0 {
		fmt.Fprintln(os.Stderr, "optd: -trace-sample must be >= 0")
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, *logfmt, slog.LevelInfo)
	slog.SetDefault(logger)

	// -advisor-replay turns the binary into a one-shot freshness client: it
	// re-runs the standing corpus through a live optd so the advisor's
	// outcome store tracks the deployed engine rather than decaying. Serving
	// flags are meaningless in this mode.
	if *advisorReplay != "" {
		if err := runAdvisorReplay(*advisorReplay, logger); err != nil {
			logger.Error("advisor replay failed", slog.Any("err", err))
			os.Exit(1)
		}
		return
	}

	cacheEntries := *cacheN
	if cacheEntries == 0 {
		cacheEntries = -1 // Config: negative disables, 0 selects the default
	}
	if *jobsRetries < 0 {
		fmt.Fprintln(os.Stderr, "optd: -jobs-retries must be >= 0")
		os.Exit(2)
	}
	// Cluster flags fail fast: a node with a bad membership view must not
	// come up and silently mis-route content-addressed traffic.
	var peerList []string
	if *peers != "" {
		found := false
		for _, p := range strings.Split(*peers, ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			peerList = append(peerList, p)
			found = found || p == *advertise
		}
		if *advertise == "" {
			fmt.Fprintln(os.Stderr, "optd: -peers requires -advertise (this node's entry in the peer list)")
			os.Exit(2)
		}
		if !found {
			fmt.Fprintf(os.Stderr, "optd: -advertise %q is not in -peers %q\n", *advertise, *peers)
			os.Exit(2)
		}
	} else if *advertise != "" {
		fmt.Fprintln(os.Stderr, "optd: -advertise is meaningless without -peers")
		os.Exit(2)
	}
	srv, err := server.New(server.Config{
		MaxConcurrent:       *workers,
		CacheEntries:        cacheEntries,
		RequestTimeout:      *timeout,
		MaxIterations:       *maxIter,
		MaxBodyBytes:        *maxBody,
		MaxSessions:         *sessions,
		SessionTTL:          *ttl,
		Logger:              logger,
		JobsDir:             *jobsDir,
		JobsWorkers:         *jobsWorkers,
		JobsRetries:         *jobsRetries,
		Peers:               peerList,
		Advertise:           *advertise,
		Engine:              *engine,
		NativeDir:           *nativeDir,
		AdvisorDir:          *advisorDir,
		AdvisorK:            *advisorK,
		AdvisorMinNeighbors: *advisorMin,
		AdvisorMaxRecords:   *advisorMax,
		TraceStore:          *traceStore,
		TraceSampleN:        *traceSample,
		TraceDir:            *traceDir,
		FarmDir:             *farmDir,
	})
	if err != nil {
		logger.Error("server init failed", slog.Any("err", err))
		os.Exit(1)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", slog.Any("err", err))
		os.Exit(1)
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	logger.Info("optd listening", slog.String("addr", ln.Addr().String()))

	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			logger.Error("debug listen failed", slog.Any("err", err))
			os.Exit(1)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := debugSrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug server failed", slog.Any("err", err))
			}
		}()
		logger.Info("optd debug listening", slog.String("addr", dln.Addr().String()))
	}

	select {
	case err := <-errc:
		logger.Error("serve failed", slog.Any("err", err))
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("optd draining", slog.Duration("budget", *drain))
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Refuse new requests at the application layer first, then close
	// listeners and wait for connections at the HTTP layer.
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Warn("drain incomplete", slog.Any("err", err))
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", slog.Any("err", err))
	}
	if debugSrv != nil {
		_ = debugSrv.Shutdown(drainCtx)
	}
	logger.Info("optd stopped")
}
