package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/frontend"
	"repro/internal/interp"
	"repro/internal/proggen"
	"repro/internal/specs"
	"repro/ir"
)

// benchFile mirrors the parts of BENCHMARK.json the tests check.
type benchFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBench(t *testing.T) benchFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func smokeOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload,
		seed:     7,
		seconds:  0.2,
		trace:    trace,
		kernel:   kernelPath,
		root:     "..",
		workdir:  t.TempDir(),
		setups:   1,
		chunk:    50 * time.Millisecond,
		small:    true,
	}
}

// unitsOf returns the name → unit map of a report.
func unitsOf(r *report) map[string]string {
	out := map[string]string{}
	for name, m := range r.Metrics {
		out[name] = m.Unit
	}
	return out
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b := loadBench(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	want := func(list []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		m := map[string]string{}
		for _, x := range list {
			if !valid.MatchString(x.Name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", x.Name)
			}
			m[x.Name] = x.Unit
		}
		return m
	}
	e2e, layers := want(b.EndToEnd), want(b.PerLayer)
	for _, wl := range b.Workloads {
		for _, trace := range []bool{false, true} {
			rep, _, _, err := run(smokeOptions(t, wl.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			w := e2e
			if trace {
				w = layers
			}
			if got := unitsOf(rep); !reflect.DeepEqual(got, w) {
				t.Errorf("%s trace=%v metrics differ from BENCHMARK.json:\n got %v\nwant %v", wl.Name, trace, got, w)
			}
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	b := loadBench(t)
	// large-programs is not listed (see TestLargeProgramsFUSMiscompile),
	// but its tiny corpus passes and keeps the code path exercised.
	names := []string{"large-programs"}
	for _, wl := range b.Workloads {
		names = append(names, wl.Name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			rep, det, _, err := run(smokeOptions(t, name, false))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("report: correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			for mname, m := range rep.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v; end-to-end metrics must never be 0", mname, m.Value)
				}
			}
			_, det2, _, err := run(smokeOptions(t, name, false))
			if err != nil {
				t.Fatal(err)
			}
			if *det != *det2 {
				t.Errorf("determinism figures differ between two runs of one seed:\n%+v\n%+v", *det, *det2)
			}
		})
	}
}

// TestPaperSuitePrinterDefect pins why paper-suite is not in
// BENCHMARK.json: ir.ToMiniF prints whole-valued REAL constants without a
// decimal point and leaves the engine's temporaries undeclared, so the
// printed trapezoid and homotopy programs re-parse with integer arithmetic
// and print different results. When the printer is fixed this test fails;
// then list paper-suite in BENCHMARK.json and delete this test.
func TestPaperSuitePrinterDefect(t *testing.T) {
	o := smokeOptions(t, "paper-suite", false)
	rep, _, _, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 {
		t.Fatal("paper-suite now passes its oracle: add it to BENCHMARK.json and remove this test")
	}
	seen := map[string]bool{}
	for _, why := range rep.failures {
		name, _, _ := strings.Cut(why, ":")
		seen[name] = true
	}
	if !reflect.DeepEqual(seen, map[string]bool{"trapezoid": true, "homotopy": true}) {
		t.Errorf("failing programs %v, want trapezoid and homotopy", seen)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	o := smokeOptions(t, "no-such-workload", false)
	if _, _, _, err := run(o); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("got %v", err)
	}
}

// TestLargeProgramsFUSMiscompile pins why large-programs is not in
// BENCHMARK.json: on seed 1 its corpus holds a proggen program that loop
// fusion miscompiles — after FUS the optimized program itself (not just
// its printed form) prints different values than the original. When FUS
// is fixed this test fails; then list large-programs in BENCHMARK.json
// and delete this test.
func TestLargeProgramsFUSMiscompile(t *testing.T) {
	src := ir.ToMiniF(proggen.Generate(2015796113853353331, proggen.Config{MaxStmts: 250}))
	p, err := frontend.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := interp.Run(p.Clone(), nil, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range largePipeline {
		before, err := interp.Run(p.Clone(), nil, interp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := specs.MustCompile(name).ApplyAll(p); err != nil {
			t.Fatal(err)
		}
		after, err := interp.Run(p.Clone(), nil, interp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		changed := interp.SameOutput(before, ref) && !interp.SameOutput(after, ref)
		if changed != (name == "FUS") {
			t.Fatalf("after %s: output changed=%v; the known miscompile is in FUS alone (fixed? then list large-programs in BENCHMARK.json)", name, changed)
		}
	}
}

// TestOptdCPPMiscompile pins a copy-propagation miscompile the optd-mix
// oracle found: with a 180-request cycle, seed 5's plan draws this
// 60-statement program, and after CPP alone the optimized program prints
// 31.5 where the original prints 38.5. optd-mix keeps its 120-request
// cycle, which does not draw it on seeds 1–10. When CPP is fixed this
// test fails; then delete it.
func TestOptdCPPMiscompile(t *testing.T) {
	p, err := frontend.Parse(ir.ToMiniF(proggen.Generate(9112941327991587440, proggen.Config{MaxStmts: 60})))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := interp.Run(p.Clone(), nil, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := specs.MustCompile("CPP").ApplyAll(p); err != nil {
		t.Fatal(err)
	}
	got, err := interp.Run(p, nil, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if interp.SameOutput(ref, got) {
		t.Fatal("CPP no longer miscompiles this program: delete this test")
	}
}
