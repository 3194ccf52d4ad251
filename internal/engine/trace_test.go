package engine

import (
	"sync"
	"testing"

	"repro/internal/frontend"
	"repro/internal/obs"
)

// TestTraceGolden runs CTP over a fixed two-statement program with tracing
// on and compares the rendered span tree against a golden. The rendering
// excludes timestamps and durations, so the tree is fully deterministic:
// the engine's search order, counter values and signatures are functions of
// the program alone.
func TestTraceGolden(t *testing.T) {
	p := frontend.MustParse(`
PROGRAM p
INTEGER x, y
x = 5
y = x + 1
END`)
	tr := obs.NewTracer(obs.Collect())
	o := compile(t, "CTP", ctpSpec, WithTracer(tr))
	apps, err := o.ApplyAll(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 1 {
		t.Fatalf("applications = %d, want 1", len(apps))
	}
	got := obs.FormatSpans(tr.Roots())
	want := `pass spec=CTP applications=1
  point index=0 sig=2;S1;S2
    match pattern_checks=2
    depend dep_checks=5 scalar_lookups=6 array_lookups=0 control_lookups=0
    action applied=true
      dep_update mode=incremental
  search found=false pattern_checks=3 dep_checks=0 scalar_lookups=0 array_lookups=0 control_lookups=0
`
	if got != want {
		t.Errorf("span tree:\n%s\nwant:\n%s", got, want)
	}
}

// TestTracePhasesNamed: every pass/match/depend/action phase the issue's
// span model names appears in a traced run, and the root carries the spec.
func TestTracePhasesNamed(t *testing.T) {
	p := frontend.MustParse(`
PROGRAM p
INTEGER x, y, z
x = 5
y = x + x
z = y + x
END`)
	tr := obs.NewTracer(obs.Collect())
	o := compile(t, "CTP", ctpSpec, WithTracer(tr))
	if _, err := o.ApplyAll(p); err != nil {
		t.Fatal(err)
	}
	roots := tr.Roots()
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	seen := map[string]bool{}
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		seen[s.Name] = true
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(roots[0])
	for _, name := range []string{"pass", "point", "match", "depend", "action", "dep_update", "search"} {
		if !seen[name] {
			t.Errorf("span %q missing from trace", name)
		}
	}
}

// TestTraceDisabledIsInert: an installed-but-disabled tracer records
// nothing and the run still optimizes.
func TestTraceDisabledIsInert(t *testing.T) {
	p := frontend.MustParse(`
PROGRAM p
INTEGER x, y
x = 5
y = x + 1
END`)
	tr := obs.NewTracer(obs.Disabled(), obs.Collect())
	o := compile(t, "CTP", ctpSpec, WithTracer(tr))
	apps, err := o.ApplyAll(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 1 {
		t.Fatalf("applications = %d, want 1", len(apps))
	}
	if got := tr.Roots(); len(got) != 0 {
		t.Fatalf("disabled tracer collected %d roots", len(got))
	}
}

// TestTraceParallelSweep: parallel ApplyAll runs over independent programs
// sharing one tracer (the optd model: one tracer per request, several
// passes) must produce intact per-pass trees. Run under -race in CI.
func TestTraceParallelSweep(t *testing.T) {
	tr := obs.NewTracer(obs.Collect())
	var wg sync.WaitGroup
	const n = 8
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := frontend.MustParse(`
PROGRAM p
INTEGER x, y
x = 5
y = x + 1
END`)
			o := compile(t, "CTP", ctpSpec, WithTracer(tr))
			_, errs[i] = o.ApplyAll(p)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	roots := tr.Roots()
	if len(roots) != n {
		t.Fatalf("collected %d pass trees, want %d", len(roots), n)
	}
	for _, r := range roots {
		if r.Name != "pass" {
			t.Fatalf("root span %q, want pass", r.Name)
		}
		// Every tree is the complete, uncorrupted run: point + final search.
		if len(r.Children) != 2 {
			t.Fatalf("pass tree has %d children, want 2:\n%s", len(r.Children), r.Format())
		}
	}
}

// TestPassStatsHook: the engine emits one PassStats per ApplyAll with
// non-zero counters for a run that applies and does dependence work.
func TestPassStatsHook(t *testing.T) {
	p := frontend.MustParse(`
PROGRAM p
INTEGER x, y
x = 5
y = x + 1
END`)
	var got []obs.PassStats
	o := compile(t, "CTP", ctpSpec, WithPassStats(func(ps obs.PassStats) { got = append(got, ps) }))
	if _, err := o.ApplyAll(p); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("PassStats emissions = %d, want 1", len(got))
	}
	ps := got[0]
	if ps.Spec != "CTP" || ps.Applications != 1 {
		t.Errorf("PassStats = %+v", ps)
	}
	if ps.PatternChecks == 0 || ps.DepChecks == 0 || ps.ScalarLookups == 0 {
		t.Errorf("counters not populated: %+v", ps)
	}
	if ps.IncrementalUpdates != 1 {
		t.Errorf("IncrementalUpdates = %d, want 1", ps.IncrementalUpdates)
	}
	if ps.Duration <= 0 {
		t.Errorf("Duration = %v, want > 0", ps.Duration)
	}
}
