package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/proggen"
	"repro/internal/server"
	"repro/internal/specs"
	"repro/ir"
)

// The optd request plan repeats a cycle of entries: 3/4 fresh sources
// (cache misses), 1/6 repeats of an earlier miss of the same cycle (cache
// hits) and 1/12 batch jobs. Each cycle renames every program, so a later
// cycle's misses miss again while doing exactly the same optimization
// work, and the engine counters of a run are a whole number of cycles.
const (
	optdClients = 2
	// optdWarm is the number of plan entries the set-up's warm-up sends.
	optdWarm = 8
)

type reqKind int

const (
	kindMiss reqKind = iota
	kindHit
	kindJob
)

func (k reqKind) String() string { return [...]string{"miss", "hit", "job"}[k] }

// planEntry is one position of the cycle. A hit repeats the miss at
// position ref of the same cycle.
type planEntry struct {
	kind reqKind
	ref  int
}

// reqObs is one request as the client saw it, with the server's own
// timings from the response body.
type reqObs struct {
	kind                     reqKind
	chunk                    int
	lat                      time.Duration
	parseUS, passUS, totalUS int64
}

type optdOutput struct {
	pos  int
	src  string
	text string
	err  error
}

// optdMix serves the plan from an in-process optd on a loopback listener
// to optdClients closed-loop clients.
type optdMix struct {
	seed    int64
	cycle   int // plan entries per cycle, a multiple of 12
	stmts   int
	workdir string

	plan  []planEntry
	bases []string // per position; hits use their ref's source

	srv     *server.Server
	hs      *http.Server
	client  *http.Client
	url     string
	jobsDir string
	served  chan error
	setups  int
	compile time.Duration

	mu      sync.Mutex
	pending []optdOutput
	obs     []reqObs
	orc     *oracle
	first   firstPass
	// Engine counters and cache outcomes over the timed requests, which
	// cover whole cycles.
	timed0        passTotals
	hits0, miss0  int64
	timedApps     int64
	timedRequests int
	started       bool
}

func newOptdMix(seed int64, cycle, stmts int, workdir string) *optdMix {
	return &optdMix{seed: seed, cycle: cycle, stmts: stmts, workdir: workdir,
		orc: newOracle(), first: newFirstPass()}
}

// makePlan draws the cycle from the seed. The first three entries are
// misses, so every hit has an earlier miss of its cycle to repeat.
func makePlan(r *rand.Rand, cycle int) []planEntry {
	rest := make([]reqKind, cycle-3)
	hits, jobs := cycle/6, cycle/12
	for i := 0; i < hits; i++ {
		rest[i] = kindHit
	}
	for i := hits; i < hits+jobs; i++ {
		rest[i] = kindJob
	}
	r.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	kinds := append([]reqKind{kindMiss, kindMiss, kindMiss}, rest...)
	plan := make([]planEntry, cycle)
	var misses []int
	for i, k := range kinds {
		plan[i] = planEntry{kind: k}
		switch k {
		case kindMiss:
			misses = append(misses, i)
		case kindHit:
			plan[i].ref = misses[r.Intn(len(misses))]
		}
	}
	return plan
}

func (w *optdMix) setup() error {
	w.setups++
	r := rand.New(rand.NewSource(w.seed))
	w.plan = makePlan(r, w.cycle)
	w.bases = make([]string, w.cycle)
	for i, e := range w.plan {
		if e.kind != kindHit {
			w.bases[i] = ir.ToMiniF(proggen.Generate(r.Int63(), proggen.Config{MaxStmts: w.stmts}))
		}
	}

	// The server compiles the request's specs on every request; time the
	// same work once for gospel.spec_compile_ms.
	t0 := time.Now()
	if _, err := compilePipeline(specs.Ten); err != nil {
		return err
	}
	w.compile = time.Since(t0)

	w.jobsDir = filepath.Join(w.workdir, "optd-jobs-"+strconv.Itoa(w.setups))
	if err := os.MkdirAll(w.jobsDir, 0o755); err != nil {
		return fmt.Errorf("jobs dir: %w", err)
	}
	// The jobs log is written but not fsynced: fsync latency on a shared
	// disk is noise no CPU calibration removes, and it is the disk's, not
	// the program's.
	srv, err := server.New(server.Config{
		JobsDir:    w.jobsDir,
		JobsNoSync: true,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return fmt.Errorf("optd: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return fmt.Errorf("listen: %w", err)
	}
	w.srv = srv
	w.hs = &http.Server{Handler: srv.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.url = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: optdClients}}

	w.started = false
	for pos := 0; pos < optdWarm; pos++ {
		w.request(pos, "w", nil, -1)
	}
	return nil
}

// metricTotals reads the server's engine counters; applications are
// counted from response bodies instead (the server keeps no total).
func metricTotals(m *server.Metrics) passTotals {
	return passTotals{
		patternChecks: m.PatternChecks.Load(),
		depChecks:     m.DepChecks.Load(),
		scalar:        m.DepScalarLookups.Load(),
		array:         m.DepArrayLookups.Load(),
		control:       m.DepControlLookups.Load(),
		incremental:   m.DepIncrementalUpdates.Load(),
		structural:    m.DepStructuralRebuilds.Load(),
		rollbacks:     m.UndoRollbacks.Load(),
	}
}

// source renders plan position pos for the cycle tagged tag.
func (w *optdMix) source(pos int, tag string) string {
	first, rest, _ := strings.Cut(w.base(pos), "\n")
	return first + tag + "\n" + rest
}

// base is the untagged source of plan position pos.
func (w *optdMix) base(pos int) string {
	if e := w.plan[pos]; e.kind == kindHit {
		return w.bases[e.ref]
	}
	return w.bases[pos]
}

// request sends plan position pos of cycle tag and records its outcome.
// chunk < 0 marks the warm-up.
func (w *optdMix) request(pos int, tag string, rec *recorder, chunk int) time.Duration {
	kind := w.plan[pos].kind
	src := w.source(pos, tag)
	item := fmt.Sprintf("%s/%d", tag, pos)
	id := rec.begin("optd."+kind.String(), item, 0)
	t0 := time.Now()
	var resp server.OptimizeResponse
	var err error
	if kind == kindJob {
		err = w.job(src, &resp)
	} else {
		err = w.post("/v1/optimize", src, http.StatusOK, &resp)
	}
	lat := time.Since(t0)
	rec.end(id)
	if err == nil && resp.Cached != (kind == kindHit) {
		err = fmt.Errorf("%s request served cached=%v", kind, resp.Cached)
	}
	var pass, apps int64
	for _, a := range resp.Applications {
		pass += a.DurationUS
		apps += int64(a.Applications)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pending = append(w.pending, optdOutput{pos: pos, src: src, text: resp.MiniF, err: err})
	if chunk < 0 {
		return lat
	}
	w.timedRequests++
	if !resp.Cached {
		w.timedApps += apps
	}
	if rec != nil {
		w.obs = append(w.obs, reqObs{kind: kind, chunk: chunk, lat: lat,
			parseUS: resp.ParseUS, passUS: pass, totalUS: resp.TotalUS})
	}
	return lat
}

// post sends src to path and decodes a want-status JSON reply into out.
func (w *optdMix) post(path, src string, want int, out any) error {
	body, err := json.Marshal(server.OptimizeRequest{Source: src, Opts: specs.Ten})
	if err != nil {
		return err
	}
	resp, err := w.client.Post(w.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return decodeReply(resp, want, out)
}

func (w *optdMix) get(path string, out any) error {
	resp, err := w.client.Get(w.url + path)
	if err != nil {
		return err
	}
	return decodeReply(resp, http.StatusOK, out)
}

func decodeReply(resp *http.Response, want int, out any) error {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s: status %d: %s", resp.Request.URL.Path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// job submits src as a batch job, waits for it and fetches its result,
// as opt -submit does.
func (w *optdMix) job(src string, out *server.OptimizeResponse) error {
	var v server.JobView
	if err := w.post("/v1/jobs", src, http.StatusAccepted, &v); err != nil {
		return err
	}
	if err := w.get("/v1/jobs/"+v.ID+"?wait=1", &v); err != nil {
		return err
	}
	if v.State != "done" {
		return fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.LastError)
	}
	return w.get("/v1/jobs/"+v.ID+"/result", out)
}

func (w *optdMix) corpusLen() int { return w.cycle }
func (w *optdMix) alignEnd() bool { return true }
func (w *optdMix) threads() int   { return optdClients }

// chunk runs plan entries from index c.next on with optdClients
// closed-loop clients: each sends its next request only after the last
// reply. A hit waits until the miss it repeats has been answered, so
// every run sees the same hits and misses.
func (w *optdMix) chunk(c chunkSpec, rec *recorder) (chunkResult, error) {
	if !w.started {
		m := w.srv.Metrics()
		w.timed0 = metricTotals(m)
		w.hits0, w.miss0 = m.CacheHits.Load(), m.CacheMisses.Load()
		w.started = true
	}
	var (
		mu   sync.Mutex
		next = c.next
		done = map[int]chan struct{}{}
		res  chunkResult
	)
	start := time.Now()
	take := func() (int, chan struct{}, bool) {
		mu.Lock()
		defer mu.Unlock()
		if time.Since(start) >= c.budget && (!c.untilRound || next%w.cycle == 0) {
			return 0, nil, false
		}
		g := next
		next++
		ch := make(chan struct{})
		done[g] = ch
		return g, ch, true
	}
	chunkIdx := 0
	if rec != nil {
		chunkIdx = rec.chunk
	}
	var wg sync.WaitGroup
	for k := 0; k < optdClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				g, ch, ok := take()
				if !ok {
					return
				}
				pos := g % w.cycle
				if e := w.plan[pos]; e.kind == kindHit {
					mu.Lock()
					ref := done[g-pos+e.ref]
					mu.Unlock()
					if ref != nil {
						<-ref
					}
				}
				d := w.request(pos, "c"+strconv.Itoa(g/w.cycle), rec, chunkIdx)
				close(ch)
				mu.Lock()
				res.ops = append(res.ops, opSample{item: pos, dur: d, latency: w.plan[pos].kind == kindMiss})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res, nil
}

// check runs every response's program through the reference interpreter
// against its original.
//
// The program name is the only difference between cycles, and it has no
// effect on what a program prints, so the oracle judges each response
// with its cycle tag removed: the reference runs once per position and a
// repeated result reuses its verdict, keeping the oracle's memory bounded.
func (w *optdMix) check() ([]verdict, error) {
	w.mu.Lock()
	pending := w.pending
	w.pending = nil
	w.mu.Unlock()
	vs := make([]verdict, 0, len(pending))
	for _, o := range pending {
		name, _, _ := strings.Cut(o.src, "\n")
		if o.err != nil {
			vs = append(vs, verdict{why: name + ": " + o.err.Error()})
			continue
		}
		base := w.base(o.pos)
		first, _, _ := strings.Cut(base, "\n")
		_, body, _ := strings.Cut(o.text, "\n")
		v, err := w.orc.check(base, nil, first+"\n"+body)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if !v.ok {
			v.why = name + ": " + v.why
		}
		w.first.noteVerdict(o.pos, v)
		vs = append(vs, v)
	}
	return vs, nil
}

// counts are the server's engine counters per plan cycle, over the timed
// requests, and the plan positions' benefits.
func (w *optdMix) counts() passCounts {
	c := w.first.counts(w.cycle)
	m := w.srv.Metrics()
	cycles := int64(w.timedRequests / w.cycle)
	if cycles == 0 {
		return c
	}
	t := metricTotals(m).minus(w.timed0)
	t.applications = w.timedApps
	c.stats = t.div(cycles)
	hits, misses := m.CacheHits.Load()-w.hits0, m.CacheMisses.Load()-w.miss0
	c.hitFrac = float64(hits) / float64(hits+misses)
	return c
}

func (w *optdMix) specCompile() time.Duration { return w.compile }

// layers reports what the responses say about the server's own time.
// Inside total_us the server parses, runs every pass and prints the
// result twice (MiniF and IR). A pass's duration_us starts after the
// dep.Compute the pass begins with, so total_us minus parse and passes is
// those dep.Compute calls plus the printing, which the response does not
// split. The rest of a miss's client latency is HTTP, JSON, the
// per-request spec compile and the cache lookup.
func (w *optdMix) layers(m map[string]float64, factor func(int) float64) {
	var n, nhit, njob int
	var parse, pass, rest, over, hit, job float64
	for _, o := range w.obs {
		f := factor(o.chunk)
		switch o.kind {
		case kindMiss:
			n++
			parse += float64(o.parseUS) / 1e3 * f
			pass += float64(o.passUS) / 1e3 * f
			rest += float64(o.totalUS-o.parseUS-o.passUS) / 1e3 * f
			over += (float64(o.lat.Microseconds()) - float64(o.totalUS)) / 1e3 * f
		case kindHit:
			nhit++
			hit += float64(o.lat.Microseconds()) / 1e3 * f
		case kindJob:
			njob++
			job += float64(o.lat.Microseconds()) / 1e3 * f
		}
	}
	per := func(x float64, k int) float64 {
		if k == 0 {
			return 0
		}
		return x / float64(k)
	}
	m["server.parse_ms"] = per(parse, n)
	m["server.pass_ms"] = per(pass, n)
	m["server.overhead_ms"] = per(over, n)
	m["server.cache_hit_ms"] = per(hit, nhit)
	m["jobs.job_ms"] = per(job, njob)
	m["frontend.parse_ms"] = m["server.parse_ms"]
	m["dep.compute_ms"] = per(rest, n)
	m["engine.pass_ms"] = m["server.pass_ms"] + m["dep.compute_ms"]
	m["ir.print_ms"] = 0
}

func (w *optdMix) close() error {
	if w.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := w.hs.Shutdown(ctx)
	if serr := <-w.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if serr := w.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	w.client.CloseIdleConnections()
	if rerr := os.RemoveAll(w.jobsDir); err == nil {
		err = rerr
	}
	w.srv = nil
	return err
}
