package server

// The fuzzing-farm surface: POST /v1/farm starts a differential-testing
// campaign whose corpus seeds run as low-priority idempotent batch jobs on
// this node's job queue. A campaign is content-addressed — profile, count,
// base seed, pass order and inline specs hash to its ID — so resubmitting
// the same campaign anywhere in a cluster routes to one owner (the same
// consistent-hash routing POST /v1/jobs uses) and dedups onto the jobs
// already queued there. Findings persist in a CRC-framed log under
// Config.FarmDir and survive restarts alongside the job WAL: a crashed
// campaign's unprocessed seeds are requeued by WAL replay, and the first
// recovered job re-registers the campaign from its payload.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/farm"
	"repro/internal/jobs"
	"repro/internal/specs"
	"repro/internal/trace"
)

// maxFarmCount bounds one campaign's corpus; larger sweeps are expected to
// be submitted as several campaigns with consecutive base seeds.
const maxFarmCount = 100000

// farmState is the server's farm subsystem: the durable finding store, the
// campaign table, and the per-campaign memoized checkers (rebuilt lazily
// from job payloads after a restart).
type farmState struct {
	store *farm.Store
	mgr   *farm.Manager

	mu       sync.Mutex
	checkers map[string]*farm.Checker
}

func newFarmState(dir string) (*farmState, error) {
	st, err := farm.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	return &farmState{store: st, mgr: farm.NewManager(), checkers: map[string]*farm.Checker{}}, nil
}

func (f *farmState) close() error {
	if f == nil {
		return nil
	}
	return f.store.Close()
}

// FarmStartRequest is the body of POST /v1/farm.
type FarmStartRequest struct {
	// Profile selects the corpus statement mix; empty selects "default".
	Profile string `json:"profile,omitempty"`
	// Count is the number of corpus programs to sweep (1..100000).
	Count int `json:"count"`
	// Seed is the base seed; program i is generated from Seed+i.
	Seed int64 `json:"seed,omitempty"`
	// MaxStmts caps generated program size; 0 selects the proggen default.
	MaxStmts int `json:"max_stmts,omitempty"`
	// Opts names built-in passes forming the pipeline under test. Empty
	// with no Specs selects the farm default order (every built-in pass).
	Opts []string `json:"opts,omitempty"`
	// Specs are inline GOSpeL specifications appended to the pipeline —
	// the seeded-miscompile path: inject a spec and check the farm catches
	// it. With empty Opts the pipeline is exactly the inline specs.
	Specs []SpecText `json:"specs,omitempty"`
}

// FarmStartResponse is the body of a 202 from POST /v1/farm.
type FarmStartResponse struct {
	farm.CampaignStatus
	// Order is the effective pass order under differential test.
	Order []string `json:"order"`
	// Variants names the engine×order configurations in the matrix.
	Variants []string `json:"variants"`
	// Jobs is the number of seed jobs newly queued (0 on resubmission).
	Jobs int `json:"jobs"`
}

// farmJobSpec is the farm job payload: everything needed to re-register
// the campaign and rebuild its checker after a crash, plus this job's
// seed. The top-level "farm" key is the payload discriminator that routes
// a job attempt to the farm runner instead of the optimize pipeline.
type farmJobSpec struct {
	Campaign string     `json:"campaign"`
	Profile  string     `json:"profile"`
	Seed     int64      `json:"seed"`
	BaseSeed int64      `json:"base_seed"`
	Count    int        `json:"count"`
	MaxStmts int        `json:"max_stmts,omitempty"`
	Order    []string   `json:"order"`
	Specs    []SpecText `json:"specs,omitempty"`
	// Auto adds an advisor-ordered variant. It is resolved at submission
	// so every job of a campaign runs the same matrix.
	Auto bool `json:"auto,omitempty"`
}

// farmPlan validates a start request and resolves everything that shapes
// the campaign: canonical pass order, campaign ID and the job spec
// template. Both the handler and the cluster route key derive from it, so
// submission and routing always agree on the owner.
func (s *Server) farmPlan(req *FarmStartRequest) (*farmJobSpec, error) {
	if req.Profile == "" {
		req.Profile = "default"
	}
	if _, ok := farm.Profiles[req.Profile]; !ok {
		return nil, failf(http.StatusBadRequest, "bad_request",
			"unknown profile %q (have %s)", req.Profile, strings.Join(farm.ProfileNames(), ", "))
	}
	if req.Count < 1 || req.Count > maxFarmCount {
		return nil, failf(http.StatusBadRequest, "bad_request",
			"count must be in 1..%d", maxFarmCount)
	}
	names, err := canonOpts(req.Opts)
	if err != nil {
		return nil, err
	}
	order := names
	if len(order) == 0 && len(req.Specs) == 0 {
		order = farm.DefaultOrder()
	}
	specList := make([]SpecText, 0, len(req.Specs))
	for _, st := range req.Specs {
		name := strings.ToUpper(strings.TrimSpace(st.Name))
		if name == "" {
			return nil, failf(http.StatusBadRequest, "spec_error", "inline spec needs a name")
		}
		specList = append(specList, SpecText{Name: name, Text: st.Text})
		order = append(order, name)
	}
	spec := &farmJobSpec{
		Profile:  req.Profile,
		BaseSeed: req.Seed,
		Count:    req.Count,
		MaxStmts: req.MaxStmts,
		Order:    order,
		Specs:    specList,
		// The advisor variant only makes sense against built-in history.
		Auto: len(specList) == 0,
	}
	// The trailing "false" is the retired compiled-variant flag; it stays in
	// the hash so campaign IDs, and with them resubmission dedup against a
	// recovered job log, are unchanged.
	parts := []string{"farm/v1", spec.Profile,
		fmt.Sprint(spec.Count), fmt.Sprint(spec.BaseSeed), fmt.Sprint(spec.MaxStmts),
		strings.Join(spec.Order, ","), fmt.Sprint(spec.Auto), "false"}
	for _, st := range specList {
		parts = append(parts, st.Name, st.Text)
	}
	spec.Campaign = "f" + jobIDForKey(CacheKey(parts...))
	return spec, nil
}

// farmRouteKey routes POST /v1/farm by the campaign's content address, so
// a campaign (and the seed jobs it spawns) lives on exactly one node.
func (s *Server) farmRouteKey(raw []byte) (string, bool) {
	var req FarmStartRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		return "", false
	}
	spec, err := s.farmPlan(&req)
	if err != nil {
		return "", false
	}
	return spec.Campaign, true
}

// campaignConfig derives the farm-package campaign config from a job spec.
func (spec *farmJobSpec) campaignConfig() farm.CampaignConfig {
	return farm.CampaignConfig{
		Profile: spec.Profile, Count: spec.Count,
		Seed: spec.BaseSeed, MaxStmts: spec.MaxStmts,
	}
}

// farmChecker returns the campaign's differential checker, building (and
// memoizing) it from the job spec when this node has not seen the campaign
// yet — fresh submission and post-crash WAL replay share this path.
func (s *Server) farmChecker(spec *farmJobSpec) (*farm.Checker, error) {
	s.farm.mu.Lock()
	if ch, ok := s.farm.checkers[spec.Campaign]; ok {
		s.farm.mu.Unlock()
		return ch, nil
	}
	s.farm.mu.Unlock()

	sources := make(map[string]string, len(specs.Sources)+len(spec.Specs))
	for n, src := range specs.Sources {
		sources[n] = src
	}
	for _, st := range spec.Specs {
		if prev, exists := sources[st.Name]; exists && prev != st.Text {
			return nil, fmt.Errorf("spec %s collides with an existing spec of the same name", st.Name)
		}
		sources[st.Name] = st.Text
	}
	variants := farm.DefaultVariants()
	var autoOrder func(string) []string
	if spec.Auto {
		variants = append(variants, farm.Variant{Name: "interp:auto", Engine: farm.EngineInterp, Auto: true})
		order := spec.Order
		autoOrder = func(source string) []string {
			d, dur, err := s.advisor.Choose(source, order)
			s.metrics.AdvisorRetrieval.Observe(dur)
			if err != nil || d.Fallback {
				return nil // abstain: the variant runs the default order
			}
			return d.Order
		}
	}
	ch, err := farm.NewChecker(farm.Config{
		Sources:       sources,
		Order:         spec.Order,
		Variants:      variants,
		MaxIterations: s.cfg.MaxIterations,
		AutoOrder:     autoOrder,
	})
	if err != nil {
		return nil, err
	}
	s.farm.mu.Lock()
	if prev, ok := s.farm.checkers[spec.Campaign]; ok {
		ch = prev // a concurrent job won the build race; keep one
	} else {
		s.farm.checkers[spec.Campaign] = ch
	}
	s.farm.mu.Unlock()
	return ch, nil
}

// farmHooks wires campaign execution into the metric set.
func (s *Server) farmHooks() farm.Hooks {
	return farm.Hooks{
		Program:   func() { s.metrics.FarmPrograms.Add(1) },
		Divergent: func() { s.metrics.FarmDivergent.Add(1) },
		Errored:   func() { s.metrics.FarmErrored.Add(1) },
		Finding:   func(farm.Finding) { s.metrics.FarmFindings.Add(1) },
		Minimized: func(d time.Duration) { s.metrics.FarmMinimizeSeconds.Observe(d) },
	}
}

// variantNames renders the checker's matrix for status responses.
func variantNames(ch *farm.Checker) []string {
	vs := ch.Variants()
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = v.Name
	}
	return names
}

func (s *Server) handleFarmStart(w http.ResponseWriter, r *http.Request) error {
	var req FarmStartRequest
	if err := decodeBody(r, &req); err != nil {
		return err
	}
	spec, err := s.farmPlan(&req)
	if err != nil {
		return err
	}
	// Build the checker before any job is queued: a bad inline spec fails
	// synchronously here (422), never as a mid-campaign error storm.
	ch, err := s.farmChecker(spec)
	if err != nil {
		return failf(http.StatusUnprocessableEntity, "spec_error", "%v", err)
	}
	camp, err := s.farm.mgr.Ensure(spec.Campaign, spec.campaignConfig())
	if err != nil {
		return failf(http.StatusBadRequest, "bad_request", "%v", err)
	}
	s.metrics.farmOn.Store(true)

	// One low-priority job per seed, content-addressed on (campaign, seed)
	// so a resubmitted campaign dedups onto the queue it already has. The
	// request's trace context rides in every job, so each seed's job.run
	// fragment joins this campaign-start trace.
	traceID := trace.FragmentFrom(r.Context()).TraceID()
	traceParent := trace.Traceparent(r.Context())
	queued := 0
	for i := 0; i < spec.Count; i++ {
		js := *spec
		js.Seed = spec.BaseSeed + int64(i)
		payload, merr := json.Marshal(struct {
			Farm *farmJobSpec `json:"farm"`
		}{&js})
		if merr != nil {
			return failf(http.StatusInternalServerError, "internal", "unencodable farm payload: %v", merr)
		}
		key := CacheKey("farmjob/v1", spec.Campaign, fmt.Sprint(js.Seed))
		_, existing, serr := s.jobs.Submit(jobs.SubmitRequest{
			ID:          jobIDForKey(key),
			Key:         key,
			Payload:     payload,
			Priority:    jobs.PriorityLow,
			TraceID:     traceID,
			TraceParent: traceParent,
		})
		switch {
		case errors.Is(serr, jobs.ErrClosed):
			w.Header().Set("Retry-After", "5")
			return failf(http.StatusServiceUnavailable, "draining", "job queue is shutting down")
		case serr != nil:
			// Resubmitting the identical campaign re-queues whatever is
			// missing — submission is idempotent end to end.
			return failf(http.StatusInternalServerError, "jobs_wal",
				"queued %d/%d seed jobs: %v", queued, spec.Count, serr)
		case !existing:
			queued++
		}
	}
	resp := FarmStartResponse{
		CampaignStatus: camp.Status(),
		Order:          spec.Order,
		Variants:       variantNames(ch),
		Jobs:           queued,
	}
	w.Header().Set("Location", "/v1/farm/"+spec.Campaign)
	writeJSON(w, http.StatusAccepted, resp)
	return nil
}

// FarmListResponse is the body of GET /v1/farm.
type FarmListResponse struct {
	Campaigns []farm.CampaignStatus `json:"campaigns"`
	// Findings is the total finding count across all campaigns on this node.
	Findings int `json:"findings"`
}

func (s *Server) handleFarmList(w http.ResponseWriter, r *http.Request) error {
	writeJSON(w, http.StatusOK, FarmListResponse{
		Campaigns: s.farm.mgr.List(),
		Findings:  s.farm.store.Len(),
	})
	return nil
}

func (s *Server) handleFarmGet(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	if s.redirectFarm(w, r, id) {
		return nil
	}
	camp, ok := s.farm.mgr.Get(id)
	if !ok {
		return failf(http.StatusNotFound, "no_campaign", "no campaign %q", id)
	}
	// ?wait=1 long-polls until the campaign finishes or the request
	// deadline hits, then reports whatever state it is in.
	if r.URL.Query().Get("wait") == "1" {
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for !camp.Done() {
			select {
			case <-r.Context().Done():
				writeJSON(w, http.StatusOK, camp.Status())
				return nil
			case <-tick.C:
			}
		}
	}
	writeJSON(w, http.StatusOK, camp.Status())
	return nil
}

// FarmFindingsResponse is the body of GET /v1/farm/{id}/findings.
type FarmFindingsResponse struct {
	Findings []farm.Finding `json:"findings"`
}

func (s *Server) handleFarmFindings(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	if s.redirectFarm(w, r, id) {
		return nil
	}
	if _, ok := s.farm.mgr.Get(id); !ok {
		// Findings outlive the in-memory campaign table (they replay from
		// the log on restart); serve them if any exist under this ID.
		if got := s.farm.store.List(id); len(got) > 0 {
			writeJSON(w, http.StatusOK, FarmFindingsResponse{Findings: got})
			return nil
		}
		return failf(http.StatusNotFound, "no_campaign", "no campaign %q", id)
	}
	got := s.farm.store.List(id)
	if got == nil {
		got = []farm.Finding{}
	}
	writeJSON(w, http.StatusOK, FarmFindingsResponse{Findings: got})
	return nil
}

// redirectFarm answers a campaign-status route with a one-hop 307 to the
// campaign's owner when it lives elsewhere — the farm analogue of
// redirectJob: campaigns present locally are served locally, whatever the
// ring says.
func (s *Server) redirectFarm(w http.ResponseWriter, r *http.Request, id string) bool {
	if s.cluster == nil {
		return false
	}
	if _, ok := s.farm.mgr.Get(id); ok {
		return false
	}
	if r.Header.Get(ForwardedByHeader) != "" || r.URL.Query().Get(redirectedParam) == "1" {
		return false
	}
	rt := s.cluster.Route(id)
	if rt.Local || !s.cluster.Up(rt.Owner) {
		return false
	}
	q := r.URL.Query()
	q.Set(redirectedParam, "1")
	loc := url.URL{Scheme: "http", Host: rt.Owner, Path: r.URL.Path, RawQuery: q.Encode()}
	s.metrics.ClusterRedirects.Add(1)
	http.Redirect(w, r, loc.String(), http.StatusTemporaryRedirect)
	return true
}

// farmJobResult is the per-seed job result body.
type farmJobResult struct {
	Campaign string `json:"campaign"`
	Seed     int64  `json:"seed"`
	Diverged bool   `json:"diverged"`
}

// runFarmJob executes one campaign seed inside a job attempt: ensure the
// campaign exists (WAL replay re-registers it from the payload), rebuild
// the checker if needed, and process the seed. Infrastructure errors
// (cancellation, finding-store I/O) bubble up so the scheduler retries the
// seed; a spec that no longer compiles is Permanent.
func (s *Server) runFarmJob(ctx context.Context, spec *farmJobSpec) (json.RawMessage, error) {
	ch, err := s.farmChecker(spec)
	if err != nil {
		return nil, jobs.Permanent(fmt.Errorf("farm checker: %w", err))
	}
	camp, err := s.farm.mgr.Ensure(spec.Campaign, spec.campaignConfig())
	if err != nil {
		return nil, jobs.Permanent(fmt.Errorf("farm campaign: %w", err))
	}
	s.metrics.farmOn.Store(true)
	sp, ctx := trace.Start(ctx, "farm.seed")
	sp.Set("campaign", spec.Campaign)
	sp.Set("seed", fmt.Sprint(spec.Seed))
	diverged, err := farm.ProcessSeed(ctx, ch, s.farm.store, camp, s.farmHooks(), spec.Seed)
	if err != nil {
		sp.SetError(err.Error())
		sp.End()
		return nil, err
	}
	sp.Set("diverged", fmt.Sprint(diverged))
	sp.End()
	return json.Marshal(farmJobResult{Campaign: spec.Campaign, Seed: spec.Seed, Diverged: diverged})
}

// Farm exposes the campaign manager (primarily for tests).
func (s *Server) Farm() *farm.Manager { return s.farm.mgr }

// FarmStore exposes the finding store (primarily for tests).
func (s *Server) FarmStore() *farm.Store { return s.farm.store }
