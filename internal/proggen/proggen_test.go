package proggen

import (
	"testing"

	"repro/dep"
	"repro/internal/dataflow"
	"repro/internal/interp"
	"repro/ir"
)

func TestGeneratedProgramsAreValidAndRun(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		p := Generate(seed, Config{})
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p)
		}
		r, err := interp.Run(p, nil, interp.Config{})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p)
		}
		if len(r.Output) == 0 {
			t.Fatalf("seed %d: no output", seed)
		}
	}
}

func TestDeterministicInSeed(t *testing.T) {
	a := Generate(42, Config{})
	b := Generate(42, Config{})
	if !a.Equal(b) {
		t.Fatal("same seed must generate the same program")
	}
	c := Generate(43, Config{})
	if a.Equal(c) {
		t.Fatal("different seeds should (practically always) differ")
	}
}

// TestAnalysesNeverPanic runs the full analysis stack over many random
// programs and checks basic well-formedness of the results.
func TestAnalysesNeverPanic(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		p := Generate(seed, Config{})
		a := dataflow.Analyze(p)
		if a.ReachIn.Len() != p.Len() {
			t.Fatalf("seed %d: dataflow size mismatch", seed)
		}
		g := dep.Compute(p)
		for _, d := range g.Deps() {
			if d.Src != g.Entry && p.Index(d.Src) < 0 || p.Index(d.Dst) < 0 {
				t.Fatalf("seed %d: dependence references a foreign statement", seed)
			}
			if d.Src == g.Entry && (d.Kind != dep.Flow || d.Carried) {
				t.Fatalf("seed %d: malformed entry dependence %v", seed, d)
			}
			if d.Level > len(d.Vec) {
				t.Fatalf("seed %d: level %d beyond vector %v", seed, d.Level, d.Vec)
			}
			if d.Carried && d.Level == 0 {
				t.Fatalf("seed %d: carried dependence without a level", seed)
			}
			common := len(ir.CommonLoops(p, d.Src, d.Dst))
			if d.Kind != dep.Control && len(d.Vec) != common {
				t.Fatalf("seed %d: vector length %d vs %d common loops (%v)",
					seed, len(d.Vec), common, d)
			}
		}
	}
}

func TestBudgetsRespected(t *testing.T) {
	p := Generate(7, Config{MaxStmts: 10, MaxDepth: 1})
	loops := ir.Loops(p)
	for _, l := range loops {
		if len(ir.EnclosingLoops(p, l.Head)) > 0 {
			t.Fatal("MaxDepth 1 must not nest loops")
		}
	}
}
