package region_test

import (
	"testing"

	"repro/dep"
	"repro/internal/frontend"
	"repro/internal/proggen"
	"repro/internal/region"
	"repro/internal/specs"
	"repro/ir"
)

func parse(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := frontend.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

// TestRegionPartitionProperties checks, over a generated corpus, that every
// partition is a true partition — ordered, gap-free, covering the whole
// statement list — and that no dependence edge of any kind connects two
// distinct regions.
func TestRegionPartitionProperties(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 60; seed++ {
		p := proggen.Generate(seed, proggen.Config{MaxStmts: 40})
		g := dep.Compute(p)
		pt := region.Compute(p, g)
		n := p.Len()
		if n == 0 {
			if pt.Len() != 0 {
				t.Fatalf("seed %d: empty program got %d regions", seed, pt.Len())
			}
			continue
		}
		at := 0
		for _, r := range pt.Regions {
			if r.Start != at || r.End <= r.Start {
				t.Fatalf("seed %d: region %+v breaks the cover at %d", seed, r, at)
			}
			at = r.End
		}
		if at != n {
			t.Fatalf("seed %d: partition covers [0,%d) of %d statements", seed, at, n)
		}
		stmts := p.Stmts()
		pos := make(map[int]int, n)
		for i, s := range stmts {
			pos[s.ID] = i
		}
		regionOf := make([]int, n)
		for ri, r := range pt.Regions {
			for k := r.Start; k < r.End; k++ {
				regionOf[k] = ri
			}
		}
		for _, d := range g.Deps() {
			if d.Src == g.Entry || d.Dst == g.Entry {
				continue
			}
			si, ok1 := pos[d.Src.ID]
			di, ok2 := pos[d.Dst.ID]
			if !ok1 || !ok2 {
				continue
			}
			if regionOf[si] != regionOf[di] {
				t.Fatalf("seed %d: %v edge %d→%d crosses regions %d/%d",
					seed, d.Kind, si, di, regionOf[si], regionOf[di])
			}
		}
	}
}

// TestRegionIndependentStatementsSplit checks the positive case: two
// statements with no dependence between them land in separate regions.
func TestRegionIndependentStatementsSplit(t *testing.T) {
	t.Parallel()
	p := parse(t, `PROGRAM two
INTEGER a, b
a = 1
b = 2
END`)
	pt := region.Compute(p, dep.Compute(p))
	if pt.Len() != 2 {
		t.Fatalf("independent statements: got %d regions, want 2: %+v", pt.Len(), pt.Regions)
	}
}

// TestRegionAdjacentLoopsStayTogether checks that two dependence-free
// adjacent loops are NOT split: adjacent-loop patterns (fusion) match
// across exactly that seam.
func TestRegionAdjacentLoopsStayTogether(t *testing.T) {
	t.Parallel()
	p := parse(t, `PROGRAM loops
INTEGER i, a(8), b(8)
DO i = 1, 8
a(i) = 1
ENDDO
DO i = 1, 8
b(i) = 2
ENDDO
END`)
	pt := region.Compute(p, dep.Compute(p))
	if pt.Len() != 1 {
		t.Fatalf("adjacent loops: got %d regions, want 1: %+v", pt.Len(), pt.Regions)
	}
}

// TestRegionFlowDependenceBlocksCut checks that a def–use pair never
// separates.
func TestRegionFlowDependenceBlocksCut(t *testing.T) {
	t.Parallel()
	p := parse(t, `PROGRAM chain
INTEGER a, b
a = 1
b = a + 1
END`)
	pt := region.Compute(p, dep.Compute(p))
	if pt.Len() != 1 {
		t.Fatalf("flow-dependent statements split into %d regions: %+v", pt.Len(), pt.Regions)
	}
}

// TestRegionEligibleSpecBuiltins pins the eligibility walk's verdict on every
// built-in: the propagation-style passes are region-eligible, while
// anything matching adjacent loops (FUS), whole-program sets (`all`), or
// statement order (.next/.prev — the aggregation family) is not.
func TestRegionEligibleSpecBuiltins(t *testing.T) {
	t.Parallel()
	want := map[string]bool{
		"CTP": true, "CPP": true, "CFO": true, "DCE": true, "PAR": true,
		"FUS": false, "AGG": false, "AGS": false, "ICM": false, "LUR": false,
	}
	for name, safe := range want {
		if got := specs.RegionSafe(name); got != safe {
			t.Errorf("RegionSafe(%s) = %v, want %v", name, got, safe)
		}
	}
	if specs.RegionSafe("NO_SUCH_SPEC") {
		t.Error("RegionSafe accepted an unknown spec")
	}
	if region.EligibleSpec(nil) {
		t.Error("EligibleSpec accepted a nil spec")
	}
}

// TestRegionExecuteSplicesInOrder runs a two-region Execute whose regions
// finish in opposite order and checks the merge is still region-index
// ordered, journaled, and ID-disjoint.
func TestRegionExecuteSplicesInOrder(t *testing.T) {
	t.Parallel()
	p := parse(t, `PROGRAM two
INTEGER a, b
a = 1
b = 2
END`)
	pt := region.Compute(p, dep.Compute(p))
	if pt.Len() != 2 {
		t.Fatalf("want 2 regions, got %+v", pt.Regions)
	}
	baseNext := p.NextID()
	out, err := region.Execute(p, pt, 2, 0, func(i int, sub *ir.Program) (int, error) {
		s := sub.Stmts()[0]
		ns := ir.CloneStmt(s)
		sub.InsertAt(1, ns) // fresh ID from the region's private range
		return 1, nil
	})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if out.Apps != 2 || out.Fallback {
		t.Fatalf("outcome = %+v, want 2 apps, no fallback", out)
	}
	stmts := p.Stmts()
	if len(stmts) != 4 {
		t.Fatalf("got %d statements after splice, want 4:\n%s", len(stmts), p.String())
	}
	ids := map[int]bool{}
	for _, s := range stmts {
		if s.ID == 0 || ids[s.ID] {
			t.Fatalf("duplicate or zero ID %d after splice", s.ID)
		}
		ids[s.ID] = true
	}
	// The two inserted statements drew from disjoint per-region ranges.
	if got := stmts[1].ID / (1 << 20); got != baseNext/(1<<20) {
		t.Fatalf("region 0 insert ID %d outside its range", stmts[1].ID)
	}
	if stmts[3].ID < baseNext+(1<<20) {
		t.Fatalf("region 1 insert ID %d collides with region 0's range", stmts[3].ID)
	}
}

// TestRegionExecuteBudgetFallback checks that exhausting
// the application budget reports Fallback with the parent program exactly
// as it was.
func TestRegionExecuteBudgetFallback(t *testing.T) {
	t.Parallel()
	p := parse(t, `PROGRAM two
INTEGER a, b
a = 1
b = 2
END`)
	before := p.String()
	pt := region.Compute(p, dep.Compute(p))
	out, err := region.Execute(p, pt, 2, 2, func(i int, sub *ir.Program) (int, error) {
		sub.Delete(sub.Stmts()[0])
		return 1, nil
	})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if !out.Fallback {
		t.Fatalf("outcome = %+v, want budget fallback", out)
	}
	if got := p.String(); got != before {
		t.Fatalf("fallback mutated the parent:\nbefore:\n%s\nafter:\n%s", before, got)
	}
}
