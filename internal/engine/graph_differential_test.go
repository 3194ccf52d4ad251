package engine_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/dep"
	"repro/internal/engine"
	"repro/internal/frontend"
	"repro/internal/specs"
)

// TestMaintainedGraphMatchesComputeHompack is the "incremental graph = full
// recompute" invariant on the real array-heavy workload: the 379-statement
// hompack-ish program through CTP,CFO,DCE,FUS,PAR. The test owns the change
// journal and drives the fixpoint itself — first fresh application point in
// search order, each signature tried once, as ApplyAll does — so it can
// compare the journal-maintained graph with dep.Compute after every
// application. A reference run through ApplyAll must reach the same
// application count and the same program, which pins the driven sequence to
// the engine's own.
func TestMaintainedGraphMatchesComputeHompack(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping the hompack-ish graph differential")
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "examples", "programs", "hompack-ish.mf"))
	if err != nil {
		t.Fatal(err)
	}
	p := frontend.MustParse(string(raw))
	ref := p.Clone()
	log, owned := p.EnsureLog()
	if !owned {
		t.Fatal("fresh program already had a journal")
	}
	defer log.Detach()

	for _, name := range []string{"CTP", "CFO", "DCE", "FUS", "PAR"} {
		o := specs.MustCompile(name)
		g := dep.Compute(p)
		seen := map[string]bool{}
		applied := 0
		for {
			var chosen engine.Env
			for _, env := range o.Preconditions(p, g) {
				if sig := engine.Signature(env); !seen[sig] {
					seen[sig] = true
					chosen = env
					break
				}
			}
			if chosen == nil {
				break
			}
			mark := log.Mark()
			if err := o.ApplyAt(p, g, chosen); err != nil {
				continue // rolled back in place; the graph is still valid
			}
			applied++
			g.Update(log.Since(mark))
			if got, want := g.String(), dep.Compute(p).String(); got != want {
				t.Fatalf("%s application %d: maintained graph diverged from dep.Compute\nmaintained:\n%s\nfresh:\n%s",
					name, applied, got, want)
			}
		}
		t.Logf("%s: %d applications", name, applied)
		apps, err := specs.MustCompile(name).ApplyAll(ref)
		if err != nil {
			t.Fatalf("%s reference: %v", name, err)
		}
		if len(apps) != applied || !ref.Equal(p) {
			t.Fatalf("%s: driven run made %d applications, ApplyAll %d (programs equal: %t)",
				name, applied, len(apps), ref.Equal(p))
		}
		if applied == 0 {
			t.Errorf("%s: no applications on hompack-ish; the differential checked nothing", name)
		}
	}
}
