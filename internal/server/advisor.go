package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/advisor"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Order directive values for OptimizeRequest.Order (and ?order=). Anything
// else is treated as an explicit comma-separated pass order.
const (
	// OrderDefault runs the opts in the order the request lists them — the
	// behavior of requests that carry no directive at all, but stamped into
	// the response so callers comparing against auto see both decisions.
	OrderDefault = "default"
	// OrderAuto asks the pass-ordering advisor: retrieve the k nearest
	// historical programs by feature geometry and run the order that served
	// them best, falling back to the default order when history is thin.
	OrderAuto = "auto"
)

// OrderHeader is the response header naming the effective pass order
// (comma-separated) whenever the request carried an order directive, so
// the decision is visible without parsing the body, including on cached
// replays.
const OrderHeader = "X-Optd-Order"

// setOrderHeader stamps the effective pass order; no directive, no header.
func setOrderHeader(w http.ResponseWriter, order []string) {
	if len(order) > 0 {
		w.Header().Set(OrderHeader, strings.Join(order, ","))
	}
}

// samePermutation reports whether a and b contain the same names (as sets
// with multiplicity).
func samePermutation(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[string]int, len(a))
	for _, n := range a {
		count[n]++
	}
	for _, n := range b {
		count[n]--
		if count[n] < 0 {
			return false
		}
	}
	return true
}

// resolveOrder applies the request's order directive before any other work:
// it canonicalizes req.Opts, rewrites it to the effective pass order, and
// normalizes req.Order — both feed the content-address cache key, which is
// how auto- and default-ordered requests for the same program stay distinct
// cache entries. The returned slice is the order to stamp into the response
// (nil when the request carried no directive). A non-nil tracer gets one
// "advisor" span per auto decision; a traced ctx additionally gets an
// "advisor.choose" span in the distributed trace.
func (s *Server) resolveOrder(ctx context.Context, req *OptimizeRequest, tracer *obs.Tracer) ([]string, error) {
	directive := strings.TrimSpace(req.Order)
	if directive == "" {
		req.Order = ""
		return nil, nil
	}
	names, err := canonOpts(req.Opts)
	if err != nil {
		return nil, err
	}
	req.Opts = names
	switch strings.ToLower(directive) {
	case OrderDefault:
		req.Order = OrderDefault
		if len(req.Opts) == 0 {
			return nil, failf(http.StatusBadRequest, "bad_request",
				"order=default needs at least one optimization in opts")
		}
		s.metrics.AdvisorDefault.Add(1)
		return append([]string(nil), req.Opts...), nil
	case OrderAuto:
		req.Order = OrderAuto
		if len(req.Opts) == 0 {
			return nil, failf(http.StatusBadRequest, "bad_request",
				"order=auto needs at least one optimization in opts")
		}
		if len(req.Specs) > 0 {
			// History is keyed by the built-in optimization set; a run mixing
			// in inline specs is not comparable to anything stored.
			return nil, failf(http.StatusBadRequest, "bad_request",
				"order=auto cannot be combined with inline specs")
		}
		span := tracer.Start("advisor", obs.String("directive", OrderAuto))
		dsp, _ := trace.Start(ctx, "advisor.choose")
		d, dur, cerr := s.advisor.Choose(req.Source, req.Opts)
		s.metrics.AdvisorRetrieval.Observe(dur)
		dsp.Set("neighbors", strconv.Itoa(d.Neighbors))
		if cerr != nil || d.Fallback {
			// Thin history (or a source the featurizer cannot parse — the
			// pipeline will report that identically in a moment): run the
			// default order rather than fail. The advisor recommends, never
			// degrades.
			s.metrics.AdvisorFallback.Add(1)
			span.Set("decision", "fallback")
			span.Set("neighbors", int64(d.Neighbors))
			span.End()
			dsp.Set("decision", "fallback")
			dsp.End()
			return append([]string(nil), req.Opts...), nil
		}
		s.metrics.AdvisorAuto.Add(1)
		req.Opts = append([]string(nil), d.Order...)
		span.Set("decision", "retrieved")
		span.Set("neighbors", int64(d.Neighbors))
		span.Set("order", strings.Join(d.Order, ","))
		span.End()
		dsp.Set("decision", "retrieved")
		dsp.Set("order", strings.Join(d.Order, ","))
		dsp.End()
		return append([]string(nil), d.Order...), nil
	default:
		order, err := canonOpts(strings.Split(directive, ","))
		if err != nil {
			return nil, err
		}
		if len(order) == 0 {
			return nil, failf(http.StatusBadRequest, "bad_request",
				"order %q names no optimizations", directive)
		}
		if len(req.Opts) > 0 && !samePermutation(order, req.Opts) {
			return nil, failf(http.StatusBadRequest, "bad_request",
				"order %s must be a permutation of opts %s",
				strings.Join(order, ","), strings.Join(req.Opts, ","))
		}
		req.Opts = order
		req.Order = strings.Join(order, ",")
		s.metrics.AdvisorExplicit.Add(1)
		return append([]string(nil), order...), nil
	}
}

// harvestOptimize feeds one successful, freshly computed optimize run into
// the advisor's outcome store. Cached replays carry no new evidence; runs
// with inline specs are not comparable to the built-in-opts history; both
// are skipped. The enqueue never blocks the request path.
func (s *Server) harvestOptimize(req *OptimizeRequest, resp *OptimizeResponse) {
	if s.advisor == nil || resp.Cached || len(req.Opts) == 0 || len(req.Specs) > 0 {
		return
	}
	applied := 0
	for _, pr := range resp.Applications {
		applied += pr.Applications
	}
	s.advisor.Harvest(advisor.Outcome{
		Source:  req.Source,
		Opts:    req.Opts,
		Order:   req.Opts,
		Applied: applied,
		WallUS:  resp.TotalUS,
		Engine:  EngineInterp,
	})
}

// jobCompleted is the jobs.Obs.Completed hook. It runs under the manager
// lock, so it only hands the snapshot to a goroutine; the decode and the
// advisor enqueue happen off the lock.
func (s *Server) jobCompleted(j *jobs.Job) {
	go s.harvestJob(j)
}

func (s *Server) harvestJob(j *jobs.Job) {
	var req JobSubmitRequest
	if json.Unmarshal(j.Payload, &req) != nil {
		return
	}
	var resp OptimizeResponse
	if json.Unmarshal(j.Result, &resp) != nil {
		return
	}
	s.harvestOptimize(&req.OptimizeRequest, &resp)
}

// advisorObs adapts the counter set to the advisor's telemetry hooks.
func (m *Metrics) advisorObs() advisor.Obs {
	return advisor.Obs{
		Harvested: func() { m.AdvisorHarvested.Add(1) },
		Dropped:   func() { m.AdvisorDropped.Add(1) },
		StoreSize: func(n int) { m.AdvisorStoreRecords.Store(int64(n)) },
	}
}
