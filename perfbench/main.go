// Command perfbench is the repository's benchmark. One run builds a named
// workload from a seed, times it for a fixed number of seconds, checks
// every optimized program against the reference interpreter, and prints
// one JSON line of metrics: the end-to-end metrics, or with -trace 1 the
// per-layer metrics. LEDGER.md explains every workload and metric.
//
// Every timing is calibrated: it is scaled by K_ref / K_measured, where
// K_measured is a fixed stdlib-only kernel (perfbench/kernel) timed in a
// separate process right before and after each timed chunk. That cancels
// the host-speed drift that made raw timings spread 13–27% between runs.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench -kernel PATH -workload paper-suite -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// setups is the number of set-ups per run; setup_s is their median.
const setups = 3

// chunk is the operation time between two calibration windows: short
// enough to follow the host's drift, long enough that the windows cost
// under a fifth of the run.
const chunk = 500 * time.Millisecond

// options is one run's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	kernel   string
	root     string // repository root, for examples/programs
	workdir  string // scratch space for the jobs log and the span file
	setups   int
	chunk    time.Duration
	small    bool // tiny corpora, for the benchmark's own tests
}

// opSample is one timed operation: its corpus item and raw duration.
// latency marks the operations latency_p50_ms is taken over.
type opSample struct {
	item    int
	dur     time.Duration
	latency bool
}

// chunkSpec asks a workload for one chunk of timed operations.
type chunkSpec struct {
	next       int           // global index of the first operation
	budget     time.Duration // operation time after which the chunk may end
	untilRound bool          // optd-mix's last chunk: end on a cycle boundary
}

// chunkResult is a chunk's operations and the time they took: their sum
// for a sequential workload, the wall time for concurrent clients.
type chunkResult struct {
	ops  []opSample
	wall time.Duration
}

// passCounts are the deterministic figures of one pass over a corpus.
type passCounts struct {
	stats              passTotals
	benefit, benefitMP float64 // mean share of run time saved
	interpOps          int64
	hitFrac            float64
}

// workload is one of the benchmark's workloads.
type workload interface {
	// setup builds the workload from nothing: compiles specs, generates
	// the corpus, starts services and runs a short warm-up.
	setup() error
	// corpusLen is the number of operations in one pass over the corpus.
	corpusLen() int
	// alignEnd asks for runs to end on a corpus-pass boundary.
	alignEnd() bool
	chunk(c chunkSpec, rec *recorder) (chunkResult, error)
	// check judges every output produced since the last check.
	check() ([]verdict, error)
	// counts are the deterministic figures of the corpus's first pass;
	// valid once the timed operations have covered the corpus.
	counts() passCounts
	// specCompile is the last set-up's spec parse, check and compile time.
	specCompile() time.Duration
	// threads is the number of cores the timed operations keep busy.
	threads() int
	// layers adds the workload's own per-layer metrics.
	layers(m map[string]float64, factor func(chunk int) float64)
	close() error
}

// sample is one operation time, calibrated (sec) and raw.
type sample struct {
	item     int
	sec, raw float64
}

func newWorkload(o options) (workload, error) {
	n := func(full, small int) int {
		if o.small {
			return small
		}
		return full
	}
	switch o.workload {
	case "paper-suite":
		return paperSuite(), nil
	case "hompack-ish":
		return largePrograms(o.root, o.seed, 0, 0), nil
	case "large-programs":
		return largePrograms(o.root, o.seed, n(24, 1), n(250, 40)), nil
	case "optd-mix":
		return newOptdMix(o.seed, n(120, 12), n(60, 20), o.workdir), nil
	case "farm-agg":
		return newFarmAgg(o.seed, n(600, 4), n(10, 1)), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames, ", "))
}

var workloadNames = []string{"hompack-ish", "optd-mix", "farm-agg", "large-programs", "paper-suite"}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// failures are the first wrong outputs, for the log.
	failures []string
}

// determinism holds the figures that must repeat exactly on one seed.
type determinism struct {
	Applications   int64   `json:"applications"`
	BenefitPct     float64 `json:"benefit_pct"`
	BenefitMPPct   float64 `json:"benefit_mp_pct"`
	CacheHitFrac   float64 `json:"server.cache_hit_frac"`
	ScalarLookups  int64   `json:"dep.scalar_lookups"`
	ArrayLookups   int64   `json:"dep.array_lookups"`
	ControlLookups int64   `json:"dep.control_lookups"`
	InterpOps      int64   `json:"interp.ops"`
}

// runState accumulates one run's measurements.
type runState struct {
	o   options
	w   workload
	cal *calibrator
	rec *recorder

	attempted, failed int
	failures          []string

	setupSec   []float64
	setupRaw   []float64
	compileSec []float64
	det        *determinism
	counts     passCounts
	interpSec  float64
	interpRuns int

	chunks []chunkRec
	// Per mode (0 untraced, 1 traced).
	samples [2][]sample
	// Over complete corpus passes, per mode.
	ops      [2]int
	rawSec   [2]float64
	calSec   [2]float64
	allocB   float64
	allocOps int
	gcCPU    float64
	allCPU   float64
}

// chunkRec is one timed chunk: its operations [start, end), mode, raw
// wall seconds, calibration factor, and runtime counter deltas.
type chunkRec struct {
	start, end, mode  int
	wall, f           float64
	alloc, gcCPU, cpu float64
}

// run performs one benchmark run. Besides the report and the determinism
// figures it returns notes for standard error.
func run(o options) (*report, *determinism, []string, error) {
	w, err := newWorkload(o)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("workdir: %w", err)
	}
	cal, err := startCalibrator(o.kernel, w.threads())
	if err != nil {
		return nil, nil, nil, err
	}
	st := &runState{o: o, w: w, cal: cal}
	if o.trace {
		st.rec = newRecorder()
	}
	rep, err := st.measure()
	if cerr := w.close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	if cerr := cal.close(); err == nil && cerr != nil {
		err = fmt.Errorf("kernel: %w", cerr)
	}
	if err == nil && o.trace {
		err = st.rec.write(filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed)))
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return rep, st.det, []string{"uncalibrated " + st.uncalibrated(), "latency " + st.latencySummary()}, nil
}

// uncalibrated summarizes the raw timings behind the calibrated metrics,
// for auditing how much the calibration removes.
func (st *runState) uncalibrated() string {
	raws := make([]sample, len(st.samples[0]))
	for i, s := range st.samples[0] {
		raws[i] = sample{item: s.item, sec: s.raw}
	}
	b, _ := json.Marshal(map[string]float64{
		"setup_s":        median(st.setupRaw),
		"programs_per_s": float64(st.ops[0]) / st.rawSec[0],
		"latency_p50_ms": 1e3 * latencyP50(raws),
		"calib_ms":       median(st.cal.windows) / 1e6,
	})
	return string(b)
}

// latencySummary states the latency samples' count, median and highest
// percentile with ten samples beyond it, over all untraced samples.
func (st *runState) latencySummary() string {
	xs := make([]float64, len(st.samples[0]))
	for i, s := range st.samples[0] {
		xs[i] = 1e3 * s.sec
	}
	out := map[string]float64{"n": float64(len(xs)), "p50_ms": median(xs)}
	if p, v, ok := highestPercentile(xs); ok {
		out["p"+strconv.Itoa(int(p))+"_ms"] = v
	}
	b, _ := json.Marshal(out)
	return string(b)
}

func (st *runState) measure() (*report, error) {
	o, w := st.o, st.w
	k, err := st.cal.window()
	if err != nil {
		return nil, err
	}
	for i := 0; i < o.setups; i++ {
		if i > 0 {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		raw := time.Since(t0)
		k2, err := st.cal.window()
		if err != nil {
			return nil, err
		}
		f := calibFactor(k, k2)
		st.setupSec = append(st.setupSec, raw.Seconds()*f)
		st.setupRaw = append(st.setupRaw, raw.Seconds())
		st.compileSec = append(st.compileSec, w.specCompile().Seconds()*f)
		if err := st.check(f); err != nil {
			return nil, err
		}
		if k, err = st.cal.window(); err != nil {
			return nil, err
		}
	}

	target := time.Duration(o.seconds * float64(time.Second))
	var total time.Duration
	next := 0
	for ci := 0; ; ci++ {
		mode := 0
		if o.trace && ci%2 == 1 {
			mode = 1
		}
		var rec *recorder
		if mode == 1 {
			rec = st.rec
			rec.chunk = ci
		}
		spec := chunkSpec{next: next, budget: o.chunk,
			untilRound: w.alignEnd() && total+o.chunk >= target && next+1 >= w.corpusLen()}
		a0, g0, c0 := readRuntime()
		res, err := w.chunk(spec, rec)
		a1, g1, c1 := readRuntime()
		if err != nil {
			return nil, err
		}
		k2, err := st.cal.window()
		if err != nil {
			return nil, err
		}
		f := calibFactor(k, k2)
		st.chunks = append(st.chunks, chunkRec{start: next, end: next + len(res.ops), mode: mode,
			wall: res.wall.Seconds(), f: f, alloc: a1 - a0, gcCPU: g1 - g0, cpu: c1 - c0})
		next += len(res.ops)
		total += res.wall
		for _, op := range res.ops {
			if op.latency {
				st.samples[mode] = append(st.samples[mode], sample{item: op.item, sec: op.dur.Seconds() * f, raw: op.dur.Seconds()})
			}
		}
		t0 := time.Now()
		if err := st.check(f); err != nil {
			return nil, err
		}
		n := w.corpusLen()
		if total >= target && next >= n && (!w.alignEnd() || next%n == 0) && (!o.trace || mode == 1) {
			break
		}
		// A long check (new outputs to interpret) separates this window
		// from the next chunk; take a fresh one.
		if time.Since(t0) > 50*time.Millisecond {
			if k2, err = st.cal.window(); err != nil {
				return nil, err
			}
		}
		k = k2
	}
	st.tallyPasses(next)
	st.settle()
	if o.trace {
		return st.layerReport(), nil
	}
	return st.endToEndReport(), nil
}

// tallyPasses sums throughput, allocation and GC time over the chunks of
// complete corpus passes. They are a fixed set of operations for a seed,
// so allocation repeats exactly and a partial last pass, whose programs
// depend on how fast the host ran, cannot tilt the mix. Chunks of the
// sequential workloads never span a pass boundary; optd-mix runs end on
// one.
func (st *runState) tallyPasses(next int) {
	complete := next - next%st.w.corpusLen()
	for _, c := range st.chunks {
		if c.end > complete {
			continue
		}
		st.ops[c.mode] += c.end - c.start
		st.rawSec[c.mode] += c.wall
		st.calSec[c.mode] += c.wall * c.f
		if c.mode == 0 {
			st.allocB += c.alloc
			st.allocOps += c.end - c.start
			st.gcCPU += c.gcCPU
			st.allCPU += c.cpu
		}
	}
}

// check runs the oracle over the outputs since the last check; f is the
// calibration factor of the span they came from.
func (st *runState) check(f float64) error {
	vs, err := st.w.check()
	if err != nil {
		return err
	}
	st.tally(vs)
	for _, v := range vs {
		if v.runTime > 0 {
			st.interpSec += v.runTime.Seconds() * f
			st.interpRuns++
		}
	}
	return nil
}

// settle records the deterministic figures after the timed operations.
func (st *runState) settle() {
	c := st.w.counts()
	st.counts = c
	st.det = &determinism{
		Applications:   c.stats.applications,
		BenefitPct:     100 * c.benefit,
		BenefitMPPct:   100 * c.benefitMP,
		CacheHitFrac:   c.hitFrac,
		ScalarLookups:  c.stats.scalar,
		ArrayLookups:   c.stats.array,
		ControlLookups: c.stats.control,
		InterpOps:      c.interpOps,
	}
}

// tally counts the oracle's verdicts.
func (st *runState) tally(vs []verdict) {
	for _, v := range vs {
		st.attempted++
		if !v.ok {
			st.failed++
			if len(st.failures) < 10 {
				st.failures = append(st.failures, v.why)
			}
		}
	}
}

// readRuntime returns cumulative heap bytes allocated, GC CPU seconds and
// total CPU seconds of this process. The allocation count comes from
// ReadMemStats, which flushes every per-thread cache and so is exact at a
// chunk boundary; the runtime/metrics counter lags by those caches.
func readRuntime() (alloc, gcCPU, allCPU float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return float64(ms.TotalAlloc), s[0].Value.Float64(), s[1].Value.Float64()
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1000
		}
	}
	return 0
}

func (st *runState) newReport() *report {
	return &report{
		Correct:   st.failed == 0 && st.attempted > 0,
		Attempted: st.attempted,
		Failed:    st.failed,
		Metrics:   map[string]metric{},
		failures:  st.failures,
	}
}

// latencyP50 is the median time per program: each corpus item's median
// calibrated time, combined by geometric mean. A plain median over a
// mixed corpus would sit on the boundary between two programs' times and
// jump between them from run to run.
func latencyP50(samples []sample) float64 {
	return geomean(itemMedians(samples))
}

func (st *runState) endToEndReport() *report {
	r := st.newReport()
	put := func(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", median(st.setupSec))
	put("programs_per_s", "1/s", float64(st.ops[0])/st.calSec[0])
	put("latency_p50_ms", "ms", 1e3*latencyP50(st.samples[0]))
	put("ok_frac", "ratio", float64(st.attempted-st.failed)/float64(st.attempted))
	put("applications", "count", float64(st.det.Applications))
	put("benefit_pct", "%", st.det.BenefitPct)
	put("benefit_mp_pct", "%", st.det.BenefitMPPct)
	put("alloc_mb_per_program", "MB", st.allocB/1e6/float64(st.allocOps))
	return r
}

func (st *runState) layerReport() *report {
	r := st.newReport()
	m := map[string]float64{}
	factor := func(c int) float64 { return st.chunks[c].f }
	tot := st.rec.totals(factor)
	n := float64(st.ops[1])
	for _, name := range []string{"frontend.parse", "engine.pass", "engine.match", "engine.depend", "engine.act", "dep.compute", "ir.print", "farm.check"} {
		m[name+"_ms"] = 1e3 * tot[name] / n
	}
	s := st.counts.stats
	m["gospel.spec_compile_ms"] = 1e3 * median(st.compileSec)
	m["engine.pattern_checks"] = float64(s.patternChecks)
	m["engine.dep_checks"] = float64(s.depChecks)
	m["engine.dep_checks_per_app"] = ratio(float64(s.depChecks), float64(s.applications))
	m["engine.rollback_frac"] = ratio(float64(s.rollbacks), float64(s.applications+s.rollbacks))
	m["dep.scalar_lookups"] = float64(s.scalar)
	m["dep.array_lookups"] = float64(s.array)
	m["dep.control_lookups"] = float64(s.control)
	m["dep.incremental_updates"] = float64(s.incremental)
	m["dep.structural_rebuilds"] = float64(s.structural)
	m["interp.run_ms"] = 1e3 * ratio(st.interpSec, float64(st.interpRuns))
	m["interp.ops"] = float64(st.det.InterpOps)
	for _, name := range []string{"server.overhead_ms", "server.parse_ms", "server.pass_ms", "server.cache_hit_ms", "jobs.job_ms", "farm.divergences"} {
		m[name] = 0
	}
	m["server.cache_hit_frac"] = st.counts.hitFrac
	m["runtime.gc_cpu_frac"] = ratio(st.gcCPU, st.allCPU)
	m["runtime.peak_rss_mb"] = peakRSSMB()
	m["host.calib_ms"] = median(st.cal.windows) / 1e6
	m["host.raw_programs_per_s"] = float64(st.ops[0]) / st.rawSec[0]
	m["host.tracing_overhead_pct"] = 100 * (pairedRatio(st.samples[1], st.samples[0]) - 1)
	st.w.layers(m, factor)
	for name, v := range m {
		r.Metrics[name] = metric{Value: v, Unit: layerUnit(name)}
	}
	return r
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_frac"):
		return "ratio"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_per_app"):
		return "count/app"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	}
	return "count"
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", 20, "seconds of timed operations")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.kernel, "kernel", "", "path of the built calibration kernel")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "perfbench", "run"), "scratch directory")
	flag.Parse()
	o.setups, o.chunk = setups, chunk
	o.trace = traceFlag == 1
	if err := validate(o, traceFlag); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	runtime.GC()
	rep, det, notes, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dj, _ := json.Marshal(det)
	fmt.Fprintf(os.Stderr, "determinism %s\n", dj)
	for _, n := range notes {
		fmt.Fprintln(os.Stderr, n)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		for _, why := range rep.failures {
			fmt.Fprintln(os.Stderr, "perfbench: wrong output:", why)
		}
		os.Exit(1)
	}
}

func validate(o options, traceFlag int) error {
	switch {
	case o.kernel == "":
		return errors.New("-kernel is required")
	case traceFlag != 0 && traceFlag != 1:
		return errors.New("-trace must be 0 or 1")
	case o.seconds <= 0:
		return errors.New("-seconds must be positive")
	}
	return nil
}
