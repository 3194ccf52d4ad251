package server

import (
	"io"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/codegen"
	"repro/internal/farm"
	"repro/internal/jobs"
	"repro/internal/nativecache"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Metrics is the daemon's counter set, exposed on GET /metrics as JSON
// (default) or Prometheus text exposition format (Accept: text/plain).
// Scalar counters are lock-free atomics; the per-route and per-pass maps are
// guarded by RWMutexes held in read mode on the hot paths — a write lock is
// taken only the first time a new route or pass name appears, so recording a
// pass never contends with a concurrent /metrics scrape. All counters are
// monotonic except InFlight and SessionsActive, which are gauges.
type Metrics struct {
	RequestsTotal        atomic.Int64
	InFlight             atomic.Int64
	CacheHits            atomic.Int64
	CacheMisses          atomic.Int64
	IterationLimitAborts atomic.Int64
	Timeouts             atomic.Int64
	PanicsRecovered      atomic.Int64
	RejectedOverload     atomic.Int64
	RejectedDraining     atomic.Int64
	SessionsCreated      atomic.Int64
	SessionsActive       atomic.Int64
	SessionsEvicted      atomic.Int64

	// Batch-job lifecycle counters. JobsQueued and JobsRunning are gauges
	// tracking the manager's queue depth and in-flight count; the rest are
	// monotonic. JobLatency observes enqueue→terminal latency.
	JobsSubmitted atomic.Int64
	JobsDeduped   atomic.Int64
	JobsRetried   atomic.Int64
	JobsQueued    atomic.Int64
	JobsRunning   atomic.Int64
	JobsDone      atomic.Int64
	JobsFailed    atomic.Int64
	JobsCancelled atomic.Int64
	JobLatency    *obs.Histogram

	// Cluster routing counters. Local counts content-addressed requests
	// served on this node (owner here, loop-protected, or failover landing
	// back home); Forwarded counts requests proxied to a peer; Failovers
	// counts owner-unreachable retries against the ring successor;
	// Redirects counts job-status 307s; PeerTransitions counts peer
	// up↔down flips. ForwardLatency observes the proxied round-trip.
	ClusterLocal           atomic.Int64
	ClusterForwarded       atomic.Int64
	ClusterFailovers       atomic.Int64
	ClusterRedirects       atomic.Int64
	ClusterPeerTransitions atomic.Int64
	ForwardLatency         *obs.Histogram

	// Cluster identity and live peer health, installed by the server when
	// clustering is enabled; nil otherwise (single-node /metrics output is
	// unchanged).
	clusterSelf   string
	clusterPeers  []string
	clusterStatus func() []cluster.PeerStatus

	// Trace-store counter source, installed by the server when tracing is
	// enabled; nil otherwise (trace sections are omitted entirely).
	traceStats func() trace.Stats

	// Dependence-store and undo-log totals, aggregated across every pass run
	// through PassObserved.
	DepScalarLookups      atomic.Int64
	DepArrayLookups       atomic.Int64
	DepControlLookups     atomic.Int64
	DepIncrementalUpdates atomic.Int64
	DepStructuralRebuilds atomic.Int64
	UndoRollbacks         atomic.Int64
	PatternChecks         atomic.Int64
	DepChecks             atomic.Int64

	// Native (compiled-optimizer) engine telemetry. nativeOn gates the
	// JSON/Prometheus sections so interp-only servers keep their exact
	// pre-native output. Hits/Misses/Corrupt count artifact-cache outcomes,
	// Fallbacks counts native-eligible requests served interpreted because
	// no artifact was loaded yet, and NativeCompileSeconds observes
	// toolchain builds (source emission through install).
	NativeHits             atomic.Int64
	NativeMisses           atomic.Int64
	NativeCorrupt          atomic.Int64
	NativeFallbacks        atomic.Int64
	NativeCompiles         atomic.Int64
	NativeCompileFailures  atomic.Int64
	NativeServedPlugin     atomic.Int64
	NativeServedSubprocess atomic.Int64
	NativeCompileSeconds   *obs.Histogram
	nativeOn               atomic.Bool

	// Pass-ordering advisor telemetry. advisorOn gates the JSON/Prometheus
	// sections (set when the server constructs the advisor). The decision
	// counters split requests by order directive: Auto counts order=auto
	// requests served a retrieved order, Fallback counts order=auto requests
	// that ran the default order for lack of history, Default and Explicit
	// count the other stamped directives. AdvisorStoreRecords is the live
	// outcome-store size; AdvisorRetrieval observes the featurize+retrieve
	// latency on the request path.
	AdvisorAuto         atomic.Int64
	AdvisorFallback     atomic.Int64
	AdvisorDefault      atomic.Int64
	AdvisorExplicit     atomic.Int64
	AdvisorHarvested    atomic.Int64
	AdvisorDropped      atomic.Int64
	AdvisorStoreRecords atomic.Int64
	AdvisorRetrieval    *obs.Histogram
	advisorOn           atomic.Bool

	// Fuzzing-farm telemetry. farmOn gates the JSON/Prometheus sections
	// (set when the first campaign registers, so servers that never fuzz
	// keep their exact pre-farm output). FarmPrograms counts checked corpus
	// programs, FarmDivergent programs with at least one divergence,
	// FarmErrored programs the oracle could not judge, FarmFindings
	// persisted findings; FarmMinimizeSeconds observes reproducer
	// minimization. The campaign gauges come from the live campaign table
	// at scrape time.
	FarmPrograms        atomic.Int64
	FarmDivergent       atomic.Int64
	FarmErrored         atomic.Int64
	FarmFindings        atomic.Int64
	FarmMinimizeSeconds *obs.Histogram
	farmOn              atomic.Bool
	farmCampaigns       func() []farm.CampaignStatus

	nativeMu     sync.RWMutex
	nativeLoaded map[string]string // spec → artifact mode, the per-spec loaded gauge

	routeMu sync.RWMutex
	routes  map[string]*routeStat

	passMu sync.RWMutex
	passes map[string]*passStat
}

// passStat accumulates per-optimization pass counters. All fields are
// atomics so concurrent passes (parallel sweeps) and scrapes never block
// each other once the entry exists.
type passStat struct {
	runs         atomic.Int64
	applications atomic.Int64
	totalNS      atomic.Int64
	maxNS        atomic.Int64
	hist         *obs.Histogram
}

// routeStat accumulates per-route request counts and latencies.
type routeStat struct {
	count atomic.Int64
	hist  *obs.Histogram
}

// passStatJSON is the wire shape of one pass entry in the JSON snapshot —
// the pre-histogram shape, kept stable for existing scrapers, plus bucket
// data.
type passStatJSON struct {
	Runs         int64 `json:"runs"`
	Applications int64 `json:"applications"`
	TotalNS      int64 `json:"total_ns"`
	MaxNS        int64 `json:"max_ns"`
}

func newMetrics() *Metrics {
	return &Metrics{
		routes:         map[string]*routeStat{},
		passes:         map[string]*passStat{},
		nativeLoaded:   map[string]string{},
		JobLatency:     obs.NewHistogram(obs.JobLatencyBuckets...),
		ForwardLatency: obs.NewHistogram(),
		// Toolchain builds run from ~250ms (warm build cache) to tens of
		// seconds (cold); the default latency buckets top out far too low.
		NativeCompileSeconds: obs.NewHistogram(0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60),
		// Retrieval is a parse plus a linear scan of a few thousand small
		// vectors: sub-millisecond typically, single-digit ms worst case.
		AdvisorRetrieval: obs.NewHistogram(0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1),
		// Minimization re-checks the oracle per shrink step: tens of ms on
		// small reproducers, seconds on large divergent programs.
		FarmMinimizeSeconds: obs.NewHistogram(0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10),
	}
}

// setFarmCampaigns installs the campaign-table snapshot source. Called
// once at server construction, before any scrape can run.
func (m *Metrics) setFarmCampaigns(list func() []farm.CampaignStatus) {
	m.farmCampaigns = list
}

// farmCampaignCounts snapshots the campaign table as (total, running).
func (m *Metrics) farmCampaignCounts() (total, running int64) {
	if m.farmCampaigns == nil {
		return 0, 0
	}
	for _, st := range m.farmCampaigns() {
		total++
		if st.State == "running" {
			running++
		}
	}
	return total, running
}

// nativeObs adapts the counter set to the artifact cache's telemetry hooks.
func (m *Metrics) nativeObs() nativecache.Obs {
	return nativecache.Obs{
		Compile: func(d time.Duration, ok bool) {
			if ok {
				m.NativeCompiles.Add(1)
			} else {
				m.NativeCompileFailures.Add(1)
			}
			m.NativeCompileSeconds.Observe(d)
		},
		Event: func(kind string) {
			switch kind {
			case "hit":
				m.NativeHits.Add(1)
			case "miss":
				m.NativeMisses.Add(1)
			case "corrupt":
				m.NativeCorrupt.Add(1)
			}
		},
		Loaded: func(spec, mode string) {
			m.nativeMu.Lock()
			// A plugin load never downgrades the gauge to subprocess; both
			// being loaded means in-process serving is available.
			if prev, ok := m.nativeLoaded[spec]; !ok || prev != "plugin" {
				m.nativeLoaded[spec] = mode
			}
			m.nativeMu.Unlock()
		},
	}
}

// nativeLoadedSnapshot returns the per-spec loaded gauge, sorted by spec.
func (m *Metrics) nativeLoadedSnapshot() (specsSorted []string, modes map[string]string) {
	m.nativeMu.RLock()
	modes = make(map[string]string, len(m.nativeLoaded))
	for k, v := range m.nativeLoaded {
		modes[k] = v
		specsSorted = append(specsSorted, k)
	}
	m.nativeMu.RUnlock()
	sort.Strings(specsSorted)
	return specsSorted, modes
}

// setClusterStatus installs the cluster identity and health snapshot
// source. Called once at server construction, before any scrape can run.
func (m *Metrics) setClusterStatus(self string, peers []string, status func() []cluster.PeerStatus) {
	m.clusterSelf = self
	m.clusterPeers = peers
	m.clusterStatus = status
}

// setTraceStats installs the trace-store counter source. Called once at
// server construction, before any scrape can run.
func (m *Metrics) setTraceStats(stats func() trace.Stats) {
	m.traceStats = stats
}

// jobsObs adapts the counter set to the job manager's lifecycle callbacks.
// The callbacks run under the manager lock, so everything here is a bare
// atomic bump.
func (m *Metrics) jobsObs() jobs.Obs {
	gauge := func(s jobs.State) *atomic.Int64 {
		switch s {
		case jobs.StateQueued:
			return &m.JobsQueued
		case jobs.StateRunning:
			return &m.JobsRunning
		}
		return nil
	}
	return jobs.Obs{
		Submitted: func(deduped bool) {
			if deduped {
				m.JobsDeduped.Add(1)
			} else {
				m.JobsSubmitted.Add(1)
			}
		},
		StateChange: func(from, to jobs.State) {
			if g := gauge(from); g != nil {
				g.Add(-1)
			}
			if g := gauge(to); g != nil {
				g.Add(1)
			}
		},
		Retried: func() { m.JobsRetried.Add(1) },
		Finished: func(final jobs.State, latency time.Duration) {
			switch final {
			case jobs.StateDone:
				m.JobsDone.Add(1)
			case jobs.StateFailed:
				m.JobsFailed.Add(1)
			case jobs.StateCancelled:
				m.JobsCancelled.Add(1)
			}
			m.JobLatency.Observe(latency)
		},
	}
}

// routeStatFor returns the stat record for route, creating it on first use.
func (m *Metrics) routeStatFor(route string) *routeStat {
	m.routeMu.RLock()
	st := m.routes[route]
	m.routeMu.RUnlock()
	if st != nil {
		return st
	}
	m.routeMu.Lock()
	st = m.routes[route]
	if st == nil {
		st = &routeStat{hist: obs.NewHistogram()}
		m.routes[route] = st
	}
	m.routeMu.Unlock()
	return st
}

// passStatFor returns the stat record for spec, creating it on first use.
func (m *Metrics) passStatFor(spec string) *passStat {
	m.passMu.RLock()
	st := m.passes[spec]
	m.passMu.RUnlock()
	if st != nil {
		return st
	}
	m.passMu.Lock()
	st = m.passes[spec]
	if st == nil {
		st = &passStat{hist: obs.NewHistogram()}
		m.passes[spec] = st
	}
	m.passMu.Unlock()
	return st
}

// CountRoute tallies one request against its route.
func (m *Metrics) CountRoute(route string) {
	m.RequestsTotal.Add(1)
	m.routeStatFor(route).count.Add(1)
}

// RouteDone records one completed request's latency against its route.
// A non-empty traceID attaches an exemplar to the latency bucket — callers
// pass one only for traces the tail sampler kept, so every exposed exemplar
// is resolvable through /v1/traces.
func (m *Metrics) RouteDone(route string, d time.Duration, traceID string) {
	m.routeStatFor(route).hist.ObserveWithExemplar(d, traceID)
}

// PassDone records one completed optimization pass; it has the shape of
// engine.PassTimingFunc so it can be installed directly as the hook.
func (m *Metrics) PassDone(spec string, applications int, d time.Duration) {
	st := m.passStatFor(spec)
	st.runs.Add(1)
	st.applications.Add(int64(applications))
	st.totalNS.Add(int64(d))
	for {
		old := st.maxNS.Load()
		if int64(d) <= old || st.maxNS.CompareAndSwap(old, int64(d)) {
			break
		}
	}
	st.hist.Observe(d)
}

// PassObserved folds one pass's full observability counters into the
// process-wide totals and the per-pass latency histogram. It has the shape
// of the engine's OnPassStats hook.
func (m *Metrics) PassObserved(ps obs.PassStats) {
	m.PassDone(ps.Spec, ps.Applications, ps.Duration)
	m.PatternChecks.Add(ps.PatternChecks)
	m.DepChecks.Add(ps.DepChecks)
	m.DepScalarLookups.Add(ps.ScalarLookups)
	m.DepArrayLookups.Add(ps.ArrayLookups)
	m.DepControlLookups.Add(ps.ControlLookups)
	m.DepIncrementalUpdates.Add(ps.IncrementalUpdates)
	m.DepStructuralRebuilds.Add(ps.StructuralRebuilds)
	m.UndoRollbacks.Add(ps.Rollbacks)
}

// sortedRouteNames returns the route names under a read lock.
func (m *Metrics) sortedRouteNames() []string {
	m.routeMu.RLock()
	names := make([]string, 0, len(m.routes))
	for k := range m.routes {
		names = append(names, k)
	}
	m.routeMu.RUnlock()
	sort.Strings(names)
	return names
}

// sortedPassNames returns the pass names under a read lock.
func (m *Metrics) sortedPassNames() []string {
	m.passMu.RLock()
	names := make([]string, 0, len(m.passes))
	for k := range m.passes {
		names = append(names, k)
	}
	m.passMu.RUnlock()
	sort.Strings(names)
	return names
}

// Snapshot renders the counters as a JSON-marshalable tree. The shape is
// backward compatible with the pre-histogram snapshot; dependence-store and
// undo-log counters appear under "dep".
func (m *Metrics) Snapshot() map[string]any {
	routes := make(map[string]int64)
	for _, k := range m.sortedRouteNames() {
		m.routeMu.RLock()
		st := m.routes[k]
		m.routeMu.RUnlock()
		routes[k] = st.count.Load()
	}
	passes := make(map[string]passStatJSON)
	for _, k := range m.sortedPassNames() {
		m.passMu.RLock()
		st := m.passes[k]
		m.passMu.RUnlock()
		passes[k] = passStatJSON{
			Runs:         st.runs.Load(),
			Applications: st.applications.Load(),
			TotalNS:      st.totalNS.Load(),
			MaxNS:        st.maxNS.Load(),
		}
	}
	snap := map[string]any{
		"requests": map[string]any{
			"total":     m.RequestsTotal.Load(),
			"by_route":  routes,
			"in_flight": m.InFlight.Load(),
		},
		"cache": map[string]any{
			"hits":   m.CacheHits.Load(),
			"misses": m.CacheMisses.Load(),
		},
		"rejected": map[string]any{
			"overload": m.RejectedOverload.Load(),
			"draining": m.RejectedDraining.Load(),
		},
		"sessions": map[string]any{
			"created": m.SessionsCreated.Load(),
			"active":  m.SessionsActive.Load(),
			"evicted": m.SessionsEvicted.Load(),
		},
		"dep": map[string]any{
			"pattern_checks":      m.PatternChecks.Load(),
			"dep_checks":          m.DepChecks.Load(),
			"scalar_lookups":      m.DepScalarLookups.Load(),
			"array_lookups":       m.DepArrayLookups.Load(),
			"control_lookups":     m.DepControlLookups.Load(),
			"incremental_updates": m.DepIncrementalUpdates.Load(),
			"structural_rebuilds": m.DepStructuralRebuilds.Load(),
			"undo_rollbacks":      m.UndoRollbacks.Load(),
		},
		"jobs": map[string]any{
			"submitted": m.JobsSubmitted.Load(),
			"deduped":   m.JobsDeduped.Load(),
			"retried":   m.JobsRetried.Load(),
			"queued":    m.JobsQueued.Load(),
			"running":   m.JobsRunning.Load(),
			"done":      m.JobsDone.Load(),
			"failed":    m.JobsFailed.Load(),
			"cancelled": m.JobsCancelled.Load(),
		},
		"iteration_limit_aborts": m.IterationLimitAborts.Load(),
		"timeouts":               m.Timeouts.Load(),
		"panics_recovered":       m.PanicsRecovered.Load(),
		"pass_latency":           passes,
	}
	if m.nativeOn.Load() {
		_, loaded := m.nativeLoadedSnapshot()
		snap["native"] = map[string]any{
			"artifact_hits":    m.NativeHits.Load(),
			"artifact_misses":  m.NativeMisses.Load(),
			"artifact_corrupt": m.NativeCorrupt.Load(),
			"fallbacks":        m.NativeFallbacks.Load(),
			"compiles":         m.NativeCompiles.Load(),
			"compile_failures": m.NativeCompileFailures.Load(),
			"served": map[string]any{
				"plugin":     m.NativeServedPlugin.Load(),
				"subprocess": m.NativeServedSubprocess.Load(),
			},
			"loaded": loaded,
		}
	}
	if m.advisorOn.Load() {
		snap["advisor"] = map[string]any{
			"store_records": m.AdvisorStoreRecords.Load(),
			"harvested":     m.AdvisorHarvested.Load(),
			"dropped":       m.AdvisorDropped.Load(),
			"decisions": map[string]any{
				"auto":     m.AdvisorAuto.Load(),
				"fallback": m.AdvisorFallback.Load(),
				"default":  m.AdvisorDefault.Load(),
				"explicit": m.AdvisorExplicit.Load(),
			},
		}
	}
	if m.farmOn.Load() {
		total, running := m.farmCampaignCounts()
		snap["farm"] = map[string]any{
			"campaigns": total,
			"active":    running,
			"programs":  m.FarmPrograms.Load(),
			"divergent": m.FarmDivergent.Load(),
			"errors":    m.FarmErrored.Load(),
			"findings":  m.FarmFindings.Load(),
		}
	}
	if m.traceStats != nil {
		st := m.traceStats()
		snap["trace"] = map[string]any{
			"kept": map[string]any{
				"error":   st.KeptError,
				"slow":    st.KeptSlow,
				"sticky":  st.KeptSticky,
				"sampled": st.KeptSampled,
			},
			"dropped":     st.Dropped,
			"evicted":     st.Evicted,
			"fragments":   st.Fragments,
			"spans":       st.Spans,
			"spill_bytes": st.SpillBytes,
		}
	}
	if m.clusterStatus != nil {
		snap["cluster"] = map[string]any{
			"self":  m.clusterSelf,
			"size":  len(m.clusterPeers),
			"peers": m.clusterStatus(),
			"routed": map[string]any{
				"local":     m.ClusterLocal.Load(),
				"forwarded": m.ClusterForwarded.Load(),
				"failover":  m.ClusterFailovers.Load(),
				"redirect":  m.ClusterRedirects.Load(),
			},
			"peer_transitions": m.ClusterPeerTransitions.Load(),
		}
	}
	return snap
}

// WriteProm renders every counter in Prometheus text exposition format
// (version 0.0.4). It never blocks a concurrent PassDone/RouteDone beyond a
// map read lock.
func (m *Metrics) WriteProm(w io.Writer) error {
	pw := obs.NewPromWriter(w)

	pw.Header("optd_requests_total", "Total HTTP requests by route.", "counter")
	for _, k := range m.sortedRouteNames() {
		m.routeMu.RLock()
		st := m.routes[k]
		m.routeMu.RUnlock()
		pw.IntSample("optd_requests_total", []obs.Label{obs.L("route", k)}, st.count.Load())
	}
	pw.Header("optd_in_flight_requests", "Requests currently being served.", "gauge")
	pw.IntSample("optd_in_flight_requests", nil, m.InFlight.Load())

	pw.Header("optd_http_request_duration_seconds", "HTTP request latency by route.", "histogram")
	for _, k := range m.sortedRouteNames() {
		m.routeMu.RLock()
		st := m.routes[k]
		m.routeMu.RUnlock()
		pw.Histogram("optd_http_request_duration_seconds", []obs.Label{obs.L("route", k)}, st.hist.Snapshot())
	}

	pw.Header("optd_pass_runs_total", "Optimization pass executions by pass.", "counter")
	for _, k := range m.sortedPassNames() {
		m.passMu.RLock()
		st := m.passes[k]
		m.passMu.RUnlock()
		pw.IntSample("optd_pass_runs_total", []obs.Label{obs.L("pass", k)}, st.runs.Load())
	}
	pw.Header("optd_pass_applications_total", "Transformation applications performed by pass.", "counter")
	for _, k := range m.sortedPassNames() {
		m.passMu.RLock()
		st := m.passes[k]
		m.passMu.RUnlock()
		pw.IntSample("optd_pass_applications_total", []obs.Label{obs.L("pass", k)}, st.applications.Load())
	}
	pw.Header("optd_pass_latency_seconds", "Optimization pass latency by pass.", "histogram")
	for _, k := range m.sortedPassNames() {
		m.passMu.RLock()
		st := m.passes[k]
		m.passMu.RUnlock()
		pw.Histogram("optd_pass_latency_seconds", []obs.Label{obs.L("pass", k)}, st.hist.Snapshot())
	}

	pw.Header("optd_cache_hits_total", "Optimization cache hits.", "counter")
	pw.IntSample("optd_cache_hits_total", nil, m.CacheHits.Load())
	pw.Header("optd_cache_misses_total", "Optimization cache misses.", "counter")
	pw.IntSample("optd_cache_misses_total", nil, m.CacheMisses.Load())

	pw.Header("optd_pattern_checks_total", "Pattern-format precondition evaluations.", "counter")
	pw.IntSample("optd_pattern_checks_total", nil, m.PatternChecks.Load())
	pw.Header("optd_dep_checks_total", "Depend-clause predicate evaluations.", "counter")
	pw.IntSample("optd_dep_checks_total", nil, m.DepChecks.Load())

	pw.Header("optd_dep_lookups_total", "Dependence-store edge lookups by kind.", "counter")
	pw.IntSample("optd_dep_lookups_total", []obs.Label{obs.L("kind", "scalar")}, m.DepScalarLookups.Load())
	pw.IntSample("optd_dep_lookups_total", []obs.Label{obs.L("kind", "array")}, m.DepArrayLookups.Load())
	pw.IntSample("optd_dep_lookups_total", []obs.Label{obs.L("kind", "control")}, m.DepControlLookups.Load())

	pw.Header("optd_dep_updates_total", "Dependence-graph maintenance operations by mode.", "counter")
	pw.IntSample("optd_dep_updates_total", []obs.Label{obs.L("mode", "incremental")}, m.DepIncrementalUpdates.Load())
	pw.IntSample("optd_dep_updates_total", []obs.Label{obs.L("mode", "structural")}, m.DepStructuralRebuilds.Load())

	pw.Header("optd_undo_rollbacks_total", "Failed action applications rolled back through the undo log.", "counter")
	pw.IntSample("optd_undo_rollbacks_total", nil, m.UndoRollbacks.Load())

	pw.Header("optd_iteration_limit_aborts_total", "Optimizations aborted at the iteration limit.", "counter")
	pw.IntSample("optd_iteration_limit_aborts_total", nil, m.IterationLimitAborts.Load())
	pw.Header("optd_timeouts_total", "Requests that exceeded their deadline.", "counter")
	pw.IntSample("optd_timeouts_total", nil, m.Timeouts.Load())
	pw.Header("optd_panics_recovered_total", "Handler panics recovered.", "counter")
	pw.IntSample("optd_panics_recovered_total", nil, m.PanicsRecovered.Load())
	pw.Header("optd_rejected_total", "Requests rejected before handling, by reason.", "counter")
	pw.IntSample("optd_rejected_total", []obs.Label{obs.L("reason", "overload")}, m.RejectedOverload.Load())
	pw.IntSample("optd_rejected_total", []obs.Label{obs.L("reason", "draining")}, m.RejectedDraining.Load())

	pw.Header("optd_sessions_created_total", "Interactive sessions created.", "counter")
	pw.IntSample("optd_sessions_created_total", nil, m.SessionsCreated.Load())
	pw.Header("optd_sessions_active", "Interactive sessions currently live.", "gauge")
	pw.IntSample("optd_sessions_active", nil, m.SessionsActive.Load())
	pw.Header("optd_sessions_evicted_total", "Interactive sessions evicted.", "counter")
	pw.IntSample("optd_sessions_evicted_total", nil, m.SessionsEvicted.Load())

	pw.Header("optd_jobs_submitted_total", "Batch jobs accepted, by dedup outcome.", "counter")
	pw.IntSample("optd_jobs_submitted_total", []obs.Label{obs.L("dedup", "new")}, m.JobsSubmitted.Load())
	pw.IntSample("optd_jobs_submitted_total", []obs.Label{obs.L("dedup", "existing")}, m.JobsDeduped.Load())
	pw.Header("optd_jobs_retries_total", "Batch job attempts re-queued after a retryable failure.", "counter")
	pw.IntSample("optd_jobs_retries_total", nil, m.JobsRetried.Load())
	pw.Header("optd_jobs_queued", "Batch jobs waiting to run.", "gauge")
	pw.IntSample("optd_jobs_queued", nil, m.JobsQueued.Load())
	pw.Header("optd_jobs_running", "Batch jobs currently executing.", "gauge")
	pw.IntSample("optd_jobs_running", nil, m.JobsRunning.Load())
	pw.Header("optd_jobs_finished_total", "Batch jobs reaching a terminal state, by state.", "counter")
	pw.IntSample("optd_jobs_finished_total", []obs.Label{obs.L("state", "done")}, m.JobsDone.Load())
	pw.IntSample("optd_jobs_finished_total", []obs.Label{obs.L("state", "failed")}, m.JobsFailed.Load())
	pw.IntSample("optd_jobs_finished_total", []obs.Label{obs.L("state", "cancelled")}, m.JobsCancelled.Load())
	pw.Header("optd_jobs_duration_seconds", "Batch job enqueue-to-terminal latency.", "histogram")
	pw.Histogram("optd_jobs_duration_seconds", nil, m.JobLatency.Snapshot())

	if m.nativeOn.Load() {
		pw.Header("optd_native_compile_seconds", "Native artifact toolchain build latency.", "histogram")
		pw.Histogram("optd_native_compile_seconds", nil, m.NativeCompileSeconds.Snapshot())
		pw.Header("optd_native_compiles_total", "Native artifact toolchain builds by result.", "counter")
		pw.IntSample("optd_native_compiles_total", []obs.Label{obs.L("result", "ok")}, m.NativeCompiles.Load())
		pw.IntSample("optd_native_compiles_total", []obs.Label{obs.L("result", "error")}, m.NativeCompileFailures.Load())
		pw.Header("optd_native_artifacts_total", "Native artifact cache outcomes by event.", "counter")
		pw.IntSample("optd_native_artifacts_total", []obs.Label{obs.L("event", "hit")}, m.NativeHits.Load())
		pw.IntSample("optd_native_artifacts_total", []obs.Label{obs.L("event", "miss")}, m.NativeMisses.Load())
		pw.IntSample("optd_native_artifacts_total", []obs.Label{obs.L("event", "corrupt")}, m.NativeCorrupt.Load())
		pw.IntSample("optd_native_artifacts_total", []obs.Label{obs.L("event", "fallback")}, m.NativeFallbacks.Load())
		pw.Header("optd_native_served_total", "Requests served by compiled optimizers, by execution mode.", "counter")
		pw.IntSample("optd_native_served_total", []obs.Label{obs.L("mode", "plugin")}, m.NativeServedPlugin.Load())
		pw.IntSample("optd_native_served_total", []obs.Label{obs.L("mode", "subprocess")}, m.NativeServedSubprocess.Load())
		pw.Header("optd_native_spec_loaded", "Whether a compiled optimizer is loaded for the spec (1 when loaded).", "gauge")
		specsSorted, loaded := m.nativeLoadedSnapshot()
		for _, spec := range specsSorted {
			pw.IntSample("optd_native_spec_loaded", []obs.Label{obs.L("spec", spec), obs.L("mode", loaded[spec])}, 1)
		}
	}

	if m.advisorOn.Load() {
		pw.Header("optd_advisor_store_records", "Outcome records live in the advisor store.", "gauge")
		pw.IntSample("optd_advisor_store_records", nil, m.AdvisorStoreRecords.Load())
		pw.Header("optd_advisor_harvested_total", "Optimization outcomes ingested into the advisor store.", "counter")
		pw.IntSample("optd_advisor_harvested_total", nil, m.AdvisorHarvested.Load())
		pw.Header("optd_advisor_dropped_total", "Outcomes shed because the harvest queue was full.", "counter")
		pw.IntSample("optd_advisor_dropped_total", nil, m.AdvisorDropped.Load())
		pw.Header("optd_advisor_decisions_total", "Order-directive resolutions by decision.", "counter")
		pw.IntSample("optd_advisor_decisions_total", []obs.Label{obs.L("decision", "auto")}, m.AdvisorAuto.Load())
		pw.IntSample("optd_advisor_decisions_total", []obs.Label{obs.L("decision", "fallback")}, m.AdvisorFallback.Load())
		pw.IntSample("optd_advisor_decisions_total", []obs.Label{obs.L("decision", "default")}, m.AdvisorDefault.Load())
		pw.IntSample("optd_advisor_decisions_total", []obs.Label{obs.L("decision", "explicit")}, m.AdvisorExplicit.Load())
		pw.Header("optd_advisor_retrieval_seconds", "Advisor featurize-and-retrieve latency.", "histogram")
		pw.Histogram("optd_advisor_retrieval_seconds", nil, m.AdvisorRetrieval.Snapshot())
	}

	if m.farmOn.Load() {
		total, running := m.farmCampaignCounts()
		pw.Header("optd_farm_campaigns", "Fuzzing campaigns registered on this node.", "gauge")
		pw.IntSample("optd_farm_campaigns", nil, total)
		pw.Header("optd_farm_campaigns_active", "Fuzzing campaigns still sweeping.", "gauge")
		pw.IntSample("optd_farm_campaigns_active", nil, running)
		pw.Header("optd_farm_programs_total", "Corpus programs checked by the differential oracle.", "counter")
		pw.IntSample("optd_farm_programs_total", nil, m.FarmPrograms.Load())
		pw.Header("optd_farm_divergent_total", "Corpus programs with at least one divergence.", "counter")
		pw.IntSample("optd_farm_divergent_total", nil, m.FarmDivergent.Load())
		pw.Header("optd_farm_errors_total", "Corpus programs the oracle could not judge.", "counter")
		pw.IntSample("optd_farm_errors_total", nil, m.FarmErrored.Load())
		pw.Header("optd_farm_findings_total", "Findings persisted to the farm store.", "counter")
		pw.IntSample("optd_farm_findings_total", nil, m.FarmFindings.Load())
		pw.Header("optd_farm_minimize_seconds", "Reproducer minimization latency.", "histogram")
		pw.Histogram("optd_farm_minimize_seconds", nil, m.FarmMinimizeSeconds.Snapshot())
	}

	if m.traceStats != nil {
		st := m.traceStats()
		pw.Header("optd_trace_fragments_total", "Trace fragments by tail-sampling decision.", "counter")
		pw.IntSample("optd_trace_fragments_total", []obs.Label{obs.L("decision", "error")}, st.KeptError)
		pw.IntSample("optd_trace_fragments_total", []obs.Label{obs.L("decision", "slow")}, st.KeptSlow)
		pw.IntSample("optd_trace_fragments_total", []obs.Label{obs.L("decision", "sticky")}, st.KeptSticky)
		pw.IntSample("optd_trace_fragments_total", []obs.Label{obs.L("decision", "sampled")}, st.KeptSampled)
		pw.IntSample("optd_trace_fragments_total", []obs.Label{obs.L("decision", "dropped")}, st.Dropped)
		pw.Header("optd_trace_evicted_total", "Trace fragments evicted from the ring.", "counter")
		pw.IntSample("optd_trace_evicted_total", nil, st.Evicted)
		pw.Header("optd_trace_fragments_stored", "Trace fragments currently retained.", "gauge")
		pw.IntSample("optd_trace_fragments_stored", nil, st.Fragments)
		pw.Header("optd_trace_spans_stored", "Spans currently retained across fragments.", "gauge")
		pw.IntSample("optd_trace_spans_stored", nil, st.Spans)
		pw.Header("optd_trace_spill_bytes", "Trace spill-log size on disk.", "gauge")
		pw.IntSample("optd_trace_spill_bytes", nil, st.SpillBytes)
	}

	pw.Header("optd_build_info", "Build and configuration identity (value is always 1).", "gauge")
	pw.IntSample("optd_build_info", []obs.Label{
		obs.L("go_version", runtime.Version()),
		obs.L("codegen_version", codegen.Version),
		obs.L("vnodes", strconv.Itoa(cluster.DefaultVNodes)),
	}, 1)

	if m.clusterStatus != nil {
		pw.Header("optd_cluster_peers", "Cluster membership size (including this node).", "gauge")
		pw.IntSample("optd_cluster_peers", nil, int64(len(m.clusterPeers)))
		pw.Header("optd_cluster_peer_up", "Peer health as last probed (1 up, 0 down).", "gauge")
		for _, st := range m.clusterStatus() {
			up := int64(0)
			if st.Up {
				up = 1
			}
			pw.IntSample("optd_cluster_peer_up", []obs.Label{obs.L("peer", st.Addr)}, up)
		}
		pw.Header("optd_cluster_routed_total", "Content-addressed requests by routing decision.", "counter")
		pw.IntSample("optd_cluster_routed_total", []obs.Label{obs.L("decision", "local")}, m.ClusterLocal.Load())
		pw.IntSample("optd_cluster_routed_total", []obs.Label{obs.L("decision", "forwarded")}, m.ClusterForwarded.Load())
		pw.IntSample("optd_cluster_routed_total", []obs.Label{obs.L("decision", "failover")}, m.ClusterFailovers.Load())
		pw.IntSample("optd_cluster_routed_total", []obs.Label{obs.L("decision", "redirect")}, m.ClusterRedirects.Load())
		pw.Header("optd_cluster_peer_transitions_total", "Peer up/down health transitions observed.", "counter")
		pw.IntSample("optd_cluster_peer_transitions_total", nil, m.ClusterPeerTransitions.Load())
		pw.Header("optd_cluster_forward_seconds", "Proxied request round-trip latency.", "histogram")
		pw.Histogram("optd_cluster_forward_seconds", nil, m.ForwardLatency.Snapshot())
	}

	return pw.Err()
}
