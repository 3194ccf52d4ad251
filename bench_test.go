package genesis

// The benchmarks regenerate every Section-4 result of the paper as a
// testing.B target (run `go test -bench=. -benchmem`); see DESIGN.md's
// per-experiment index and EXPERIMENTS.md for the paper-vs-measured record.
// Custom metrics report the experiment's headline numbers alongside the
// usual ns/op.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/dep"
	"repro/internal/advisor"
	"repro/internal/codegen"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/farm"
	"repro/internal/gospel"
	"repro/internal/interp"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/proggen"
	"repro/internal/server"
	"repro/internal/specs"
	"repro/internal/workloads"
	"repro/ir"
)

// BenchmarkE1QualityVsHandCoded regenerates E1: generated optimizers against
// the hand-coded suite on every workload.
func BenchmarkE1QualityVsHandCoded(b *testing.B) {
	var agreement, rows int
	for i := 0; i < b.N; i++ {
		r := experiments.RunE1()
		agreement, rows = r.Agreement, len(r.Rows)
	}
	b.ReportMetric(float64(agreement), "agree")
	b.ReportMetric(float64(rows), "pairs")
}

// BenchmarkE2ApplicationPoints regenerates E2: the application-point census
// and CTP's enablement counts.
func BenchmarkE2ApplicationPoints(b *testing.B) {
	var r experiments.E2Result
	for i := 0; i < b.N; i++ {
		r = experiments.RunE2()
	}
	b.ReportMetric(float64(r.Points["CTP"]), "CTP-points")
	b.ReportMetric(float64(r.Enabled["DCE"]), "enabled-DCE")
	b.ReportMetric(float64(r.Enabled["CFO"]), "enabled-CFO")
	b.ReportMetric(float64(r.Enabled["LUR"]), "enabled-LUR")
}

// BenchmarkE3Orderings regenerates E3: the six orderings of FUS, INX, LUR
// on the interaction program.
func BenchmarkE3Orderings(b *testing.B) {
	var distinct int
	for i := 0; i < b.N; i++ {
		distinct = experiments.RunE3().DistinctPrograms
	}
	b.ReportMetric(float64(distinct), "programs")
}

// BenchmarkE4CostBenefit regenerates E4: per-optimization cost and expected
// benefit under the three architectural models.
func BenchmarkE4CostBenefit(b *testing.B) {
	var inxChecks int
	var inxBenefit float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunE4()
		row, _ := r.Row("INX")
		inxChecks, inxBenefit = row.Checks, row.BenefitScalar
	}
	b.ReportMetric(float64(inxChecks), "INX-checks")
	b.ReportMetric(inxBenefit, "INX-benefit%")
}

// BenchmarkE5SpecVariants regenerates E5: the LUR bound-check-order cost
// comparison.
func BenchmarkE5SpecVariants(b *testing.B) {
	var upper, lower int
	for i := 0; i < b.N; i++ {
		r := experiments.RunE5()
		upper, lower = r.UpperFirstChecks, r.LowerFirstChecks
	}
	b.ReportMetric(float64(upper), "upper-first")
	b.ReportMetric(float64(lower), "lower-first")
}

// BenchmarkE6MembershipStrategies regenerates E6: members-first vs
// deps-first vs the heuristic.
func BenchmarkE6MembershipStrategies(b *testing.B) {
	var wins, rows int
	for i := 0; i < b.N; i++ {
		r := experiments.RunE6()
		wins, rows = r.HeuristicWins, len(r.Rows)
	}
	b.ReportMetric(float64(wins), "heuristic-wins")
	b.ReportMetric(float64(rows), "opts")
}

// BenchmarkE7GeneratedSize regenerates E7: the implementation-size
// statistics of the emitted code.
func BenchmarkE7GeneratedSize(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		avg = experiments.RunE7().AvgGenerated
	}
	b.ReportMetric(avg, "avg-lines")
}

// --- microbenchmarks of the substrates ---

// BenchmarkDependenceAnalysis measures one full dependence-graph
// computation over the whole workload suite.
func BenchmarkDependenceAnalysis(b *testing.B) {
	progs := make([]func() int, 0, len(workloads.All))
	for _, w := range workloads.All {
		w := w
		progs = append(progs, func() int {
			return len(dep.Compute(w.Program()).Deps())
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range progs {
			f()
		}
	}
}

// BenchmarkOptimizerCompile measures compiling all built-in specifications
// (GENesis's generation step).
func BenchmarkOptimizerCompile(b *testing.B) {
	names := specs.Names()
	for i := 0; i < b.N; i++ {
		for _, n := range names {
			if _, err := specs.Compile(n); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkApplyCTP measures one full constant-propagation fixpoint on the
// workload suite.
func BenchmarkApplyCTP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range workloads.All {
			p := w.Program()
			o := specs.MustCompile("CTP")
			if _, err := o.ApplyAll(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDependenceAnalysisLarge scales the dependence analysis to a
// generated ~200-statement program.
func BenchmarkDependenceAnalysisLarge(b *testing.B) {
	p := proggen.Generate(1, proggen.Config{MaxStmts: 200})
	b.ReportMetric(float64(p.Len()), "stmts")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dep.Compute(p)
	}
}

// BenchmarkApplyPipelineLarge runs a five-optimization pipeline over a
// generated large program.
func BenchmarkApplyPipelineLarge(b *testing.B) {
	pipeline := []string{"CTP", "CFO", "DCE", "FUS", "PAR"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := proggen.Generate(2, proggen.Config{MaxStmts: 120})
		for _, name := range pipeline {
			o := specs.MustCompile(name)
			if _, err := o.ApplyAll(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkHompackPipeline is the interpreted five-pass CTP,CFO,DCE,FUS,PAR
// pipeline over the 379-statement hompack-ish program, one operation being
// parse → five ApplyAll passes → MiniF print with the optimizers compiled
// once up front. It is the perfbench hompack-ish operation as a go test
// benchmark, so a profile of the dependence layer needs no benchmark build:
//
//	go test -run '^$' -bench HompackPipeline -benchmem -cpuprofile cpu.out .
func BenchmarkHompackPipeline(b *testing.B) {
	raw, err := os.ReadFile(filepath.Join("examples", "programs", "hompack-ish.mf"))
	if err != nil {
		b.Fatal(err)
	}
	var passes []*engine.Optimizer
	for _, name := range []string{"CTP", "CFO", "DCE", "FUS", "PAR"} {
		passes = append(passes, specs.MustCompile(name))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := ParseProgram(string(raw))
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range passes {
			if _, err := o.ApplyAll(p); err != nil {
				b.Fatalf("%s: %v", o.Name(), err)
			}
		}
		_ = ir.ToMiniF(p)
	}
}

// BenchmarkDriverFixpoint compares the two dependence-maintenance modes of
// the fixpoint driver on large generated programs: the default incremental
// Graph.Update from the change journal against a full dep.Compute after
// every application (WithoutIncremental). CTP is the driven optimizer — its
// actions are modify-only, so every application stays on the incremental
// path. Compare with:
//
//	go test -bench=DriverFixpoint -benchmem | tee out.txt
//	benchstat out.txt          # or scripts/bench.sh
func BenchmarkDriverFixpoint(b *testing.B) {
	modes := []struct {
		name string
		opts []Option
	}{
		{"incremental", nil},
		{"full-recompute", []Option{WithoutIncremental()}},
	}
	for _, size := range []int{120, 500} {
		template := proggen.Generate(11, proggen.Config{MaxStmts: size})
		for _, mode := range modes {
			b.Run(fmt.Sprintf("%s-%d", mode.name, size), func(b *testing.B) {
				o, err := BuiltIn("CTP", mode.opts...)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(template.Len()), "stmts")
				var apps int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					p := template.Clone()
					b.StartTimer()
					n, err := o.ApplyAll(p)
					if err != nil {
						b.Fatal(err)
					}
					apps = n
				}
				b.ReportMetric(float64(apps), "apps")
			})
		}
	}
}

// BenchmarkDriverFixpointObs isolates the cost of the tracing layer on the
// driver fixpoint: no tracer at all, a disabled tracer threaded through every
// candidate point (the production default — must stay within 5% of "none";
// scripts/bench.sh -overhead enforces this), and a fully collecting tracer.
func BenchmarkDriverFixpointObs(b *testing.B) {
	template := proggen.Generate(11, proggen.Config{MaxStmts: 120})
	variants := []struct {
		name string
		opts func() []Option
	}{
		{"none", func() []Option { return nil }},
		{"disabled", func() []Option {
			return []Option{WithTracer(obs.NewTracer(obs.Disabled()))}
		}},
		{"traced", func() []Option {
			return []Option{WithTracer(obs.NewTracer(obs.Collect()))}
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				o, err := BuiltIn("CTP", v.opts()...)
				if err != nil {
					b.Fatal(err)
				}
				p := template.Clone()
				b.StartTimer()
				if _, err := o.ApplyAll(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServerOptimize measures one POST /v1/optimize through the optd
// handler stack (routing, admission, decoding, the full pipeline, encoding):
// cold runs bypass the result cache with no_cache, hit runs repeat an
// identical request against a warmed cache. The hit/cold ratio is the value
// of content-addressed caching; a hit should be well over an order of
// magnitude cheaper.
func BenchmarkServerOptimize(b *testing.B) {
	prog := proggen.Generate(7, proggen.Config{MaxStmts: 120})
	body, err := json.Marshal(map[string]any{
		"source": ir.ToMiniF(prog),
		"opts":   []string{"CTP", "DCE"},
	})
	if err != nil {
		b.Fatal(err)
	}
	post := func(b *testing.B, h http.Handler, payload []byte) {
		b.Helper()
		req := httptest.NewRequest("POST", "/v1/optimize", bytes.NewReader(payload))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("optimize = %d: %s", rec.Code, rec.Body.String())
		}
	}

	quiet := server.Config{Logger: slog.New(slog.DiscardHandler)}
	b.Run("cold", func(b *testing.B) {
		srv, err := server.New(quiet)
		if err != nil {
			b.Fatal(err)
		}
		h := srv.Handler()
		cold, err := json.Marshal(map[string]any{
			"source":   ir.ToMiniF(prog),
			"opts":     []string{"CTP", "DCE"},
			"no_cache": true,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, h, cold)
		}
	})
	b.Run("cache-hit", func(b *testing.B) {
		srv, err := server.New(quiet)
		if err != nil {
			b.Fatal(err)
		}
		h := srv.Handler()
		post(b, h, body) // warm the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, h, body)
		}
		b.StopTimer()
		if hits := srv.Metrics().CacheHits.Load(); hits < int64(b.N) {
			b.Fatalf("cache hits = %d, want >= %d", hits, b.N)
		}
	})
}

// BenchmarkAdvisorOrder measures what the pass-ordering advisor adds to a
// POST /v1/optimize: order=default only stamps the requested order, while
// order=auto featurizes the program and retrieves the k nearest historical
// outcomes before the pipeline runs. The outcome store is seeded so auto
// resolves to exactly the order default runs — both variants execute an
// identical pipeline, making the auto/default ratio the pure cost of the
// advisor decision. scripts/bench.sh -advisor gates that ratio at 1.05.
func BenchmarkAdvisorOrder(b *testing.B) {
	prog := proggen.Generate(7, proggen.Config{MaxStmts: 120})
	src := ir.ToMiniF(prog)
	opts := []string{"CTP", "DCE"}
	run := func(b *testing.B, directive string) {
		srv, err := server.New(server.Config{Logger: slog.New(slog.DiscardHandler)})
		if err != nil {
			b.Fatal(err)
		}
		// Seed enough neighbors that auto retrieves instead of falling back.
		// Every seeded outcome (and every outcome harvested from the runs
		// below) carries the default order, so the retrieved recommendation
		// is always CTP,DCE and the two sub-benchmarks stay comparable.
		for i := 0; i < 8; i++ {
			srv.Advisor().Harvest(advisor.Outcome{
				Source: src, Opts: opts, Order: opts,
				Applied: 5, WallUS: 100, Engine: "interp",
			})
		}
		srv.Advisor().Flush()
		payload, err := json.Marshal(map[string]any{
			"source": src, "opts": opts, "order": directive, "no_cache": true,
		})
		if err != nil {
			b.Fatal(err)
		}
		h := srv.Handler()
		post := func() {
			req := httptest.NewRequest("POST", "/v1/optimize", bytes.NewReader(payload))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("optimize = %d: %s", rec.Code, rec.Body.String())
			}
		}
		post() // warm the feature-vector cache, as a steady-state server is
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post()
		}
	}
	b.Run("default", func(b *testing.B) { run(b, server.OrderDefault) })
	b.Run("auto", func(b *testing.B) { run(b, server.OrderAuto) })
}

// BenchmarkJobsThroughput measures the batch-job path end to end: HTTP
// submission through WAL journaling, scheduling, a worker-pool optimization
// run, and completion. Every iteration submits a unique program so neither
// the idempotency key nor the result cache short-circuits the pipeline; the
// WAL runs without per-append fsync so the benchmark measures the subsystem
// rather than the disk.
func BenchmarkJobsThroughput(b *testing.B) {
	srv, err := server.New(server.Config{
		Logger:     slog.New(slog.DiscardHandler),
		JobsDir:    b.TempDir(),
		JobsNoSync: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload, err := json.Marshal(map[string]any{
			"source": fmt.Sprintf("PROGRAM j%d\nINTEGER a, x\nx = %d\na = 1\nPRINT x\nEND\n", i, i),
			"opts":   []string{"DCE"},
		})
		if err != nil {
			b.Fatal(err)
		}
		req := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(payload))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			b.Fatalf("submit = %d: %s", rec.Code, rec.Body.String())
		}
		var v struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			b.Fatal(err)
		}
		j, err := srv.Jobs().Wait(context.Background(), v.ID)
		if err != nil {
			b.Fatal(err)
		}
		if j.State != jobs.StateDone {
			b.Fatalf("job %s = %s: %s", j.ID, j.State, j.LastError)
		}
	}
	b.StopTimer()
	if err := srv.Shutdown(context.Background()); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFarmThroughput prices the differential fuzzing oracle: each
// iteration generates one corpus program from the aggregation profile and
// sweeps it through the reference interpreter and the default variant
// matrix over the full default pipeline — the per-program cost that sizes
// a farm campaign. Healthy specs must stay divergence-free throughout.
func BenchmarkFarmThroughput(b *testing.B) {
	ch, err := farm.NewChecker(farm.Config{})
	if err != nil {
		b.Fatal(err)
	}
	st, err := farm.OpenStore("")
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	camp, err := farm.NewManager().Ensure("bench", farm.CampaignConfig{
		Profile: "aggregation", Count: 1 << 30, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := int64(i) + 1
		diverged, err := farm.ProcessSeed(context.Background(), ch, st, camp, farm.Hooks{}, seed)
		if err != nil {
			b.Fatal(err)
		}
		if diverged {
			b.Fatalf("healthy specs diverged at seed %d", seed)
		}
	}
}

// BenchmarkGenerateCode measures emitting Go source for the whole suite.
func BenchmarkGenerateCode(b *testing.B) {
	var sp []*gospel.Spec
	for _, name := range specs.Names() {
		s, err := gospel.ParseAndCheck(name, specs.Sources[name])
		if err != nil {
			b.Fatal(err)
		}
		sp = append(sp, s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sp {
			if _, err := codegen.Generate(s, codegen.Options{Package: "main"}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkInterpreter measures executing the workload suite.
func BenchmarkInterpreter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range workloads.All {
			if _, err := interp.Run(w.Program(), w.Input, interp.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkClusterForward prices the sharded routing hop: an optimize cache
// hit served by the owning node directly ("local") against the identical
// request arriving at the non-owner and being proxied one hop to the owner
// ("forwarded"). Both paths terminate in the owner's result cache, so the
// gap is pure forwarding overhead — proxy round-trip, header copy, response
// relay over real loopback TCP.
func BenchmarkClusterForward(b *testing.B) {
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	addrA, addrB := lnA.Addr().String(), lnB.Addr().String()
	peers := []string{addrA, addrB}
	start := func(self string, ln net.Listener) (*server.Server, *http.Server) {
		srv, err := server.New(server.Config{
			Logger:        slog.New(slog.DiscardHandler),
			Peers:         peers,
			Advertise:     self,
			ProbeInterval: time.Hour, // quiet: no probe traffic during timing
		})
		if err != nil {
			b.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		return srv, hs
	}
	srvA, hsA := start(addrA, lnA)
	srvB, hsB := start(addrB, lnB)
	defer func() {
		hsA.Close()
		hsB.Close()
		srvA.Shutdown(context.Background())
		srvB.Shutdown(context.Background())
	}()

	prog := proggen.Generate(7, proggen.Config{MaxStmts: 120})
	body, err := json.Marshal(map[string]any{
		"source": ir.ToMiniF(prog),
		"opts":   []string{"CTP", "DCE"},
	})
	if err != nil {
		b.Fatal(err)
	}
	post := func(addr string) *http.Response {
		resp, err := http.Post("http://"+addr+"/v1/optimize", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			b.Fatalf("optimize = %d: %s", resp.StatusCode, raw)
		}
		return resp
	}
	// Ownership is hash-determined; discover it empirically (and warm the
	// owner's cache) from the routing header any node stamps.
	resp := post(addrA)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	owner := resp.Header.Get(server.ServedByHeader)
	other := addrA
	if owner == addrA {
		other = addrB
	}

	for _, bc := range []struct{ name, addr string }{
		{"local", owner},
		{"forwarded", other},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				resp := post(bc.addr)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		})
	}
}
