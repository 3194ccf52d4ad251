package dep

import (
	"testing"

	"repro/internal/frontend"
	"repro/internal/proggen"
	"repro/ir"
)

// statsProgram mixes scalar flow, an array-carried dependence inside a loop,
// and control dependence under an IF, so queries can hit all three lookup
// classes.
const statsSrc = `
PROGRAM stats
INTEGER n, i, x
REAL a(16)
n = 16
x = n + 1
DO i = 2, n
  a(i) = a(i-1) + 1.0
ENDDO
IF (x > 0) THEN
  x = x - 1
ENDIF
PRINT x
END
`

// TestStatsLookupClassification: Query/Exists count each examined candidate
// edge exactly once, classified scalar/array/control by the dependence
// variable.
func TestStatsLookupClassification(t *testing.T) {
	p := frontend.MustParse(statsSrc)
	g := Compute(p)
	if got := g.Stats(); got != (Stats{}) {
		t.Fatalf("fresh graph has non-zero stats: %+v", got)
	}

	// A wildcard query walks every edge: the per-kind lookup counts must sum
	// to the number of edges examined and each class must be represented in
	// this program.
	_ = g.Query(Flow, nil, nil, nil)
	st := g.Stats()
	if st.ScalarLookups == 0 {
		t.Errorf("scalar lookups = 0: %+v", st)
	}
	if st.ArrayLookups == 0 {
		t.Errorf("array lookups = 0 despite a(i)/a(i-1): %+v", st)
	}
	_ = g.Query(Control, nil, nil, nil)
	st = g.Stats()
	if st.ControlLookups == 0 {
		t.Errorf("control lookups = 0 despite the IF: %+v", st)
	}
	// The kind index bounds each walk: no query may examine more edges than
	// the graph holds, and every examined edge is classified exactly once.
	if total := st.ScalarLookups + st.ArrayLookups + st.ControlLookups; total > 2*int64(len(g.Deps())) {
		t.Errorf("lookup total %d exceeds two index walks over %d deps: %+v", total, len(g.Deps()), st)
	}

	// Exists counts the edges it examines too (it may stop early; it must
	// count at least one more on a further match).
	before := g.Stats()
	g.Exists(Flow, nil, nil, nil)
	if got := g.Stats(); got == before {
		t.Errorf("Exists examined no edges: %+v", got)
	}
}

// TestCountMatchesQuery: Count is len(Query) for the exact, src-only,
// dst-only and wildcard forms, with and without a direction pattern, and it
// moves every lookup counter by exactly the delta the same Query moves it
// by — so per-layer lookup figures stay comparable whichever one a caller
// uses.
func TestCountMatchesQuery(t *testing.T) {
	for _, p := range []*ir.Program{
		frontend.MustParse(statsSrc),
		proggen.Generate(3, proggen.Config{MaxStmts: 60}),
	} {
		g := Compute(p)
		ends := append([]*ir.Stmt{nil, g.Entry}, p.Stmts()...)
		patterns := []Vector{nil, {DirEQ}, {DirLT}, {DirAny}, {DirEQ, DirLT}}
		checked, nonEmpty := 0, 0
		for kind := Flow; kind <= Control; kind++ {
			for _, src := range ends {
				for _, dst := range ends {
					for _, pat := range patterns {
						before := g.Stats()
						want := len(g.Query(kind, src, dst, pat))
						queryDelta := g.Stats().Sub(before)
						before = g.Stats()
						got := g.Count(kind, src, dst, pat)
						countDelta := g.Stats().Sub(before)
						if got != want {
							t.Fatalf("%s: Count(%s, %v, %v, %s) = %d, len(Query) = %d",
								p.Name, kind, src, dst, pat, got, want)
						}
						if countDelta != queryDelta {
							t.Fatalf("%s: Count(%s, %v, %v, %s) moved stats by %+v, Query by %+v",
								p.Name, kind, src, dst, pat, countDelta, queryDelta)
						}
						checked++
						if want > 0 {
							nonEmpty++
						}
					}
				}
			}
		}
		if nonEmpty == 0 || nonEmpty == checked {
			t.Fatalf("%s: %d of %d queries matched; the comparison is degenerate", p.Name, nonEmpty, checked)
		}
	}
}

// TestStatsUpdateModes: incremental journal consumption and the structural
// fallback are counted separately, and stats survive a recompute.
func TestStatsUpdateModes(t *testing.T) {
	p := frontend.MustParse(statsSrc)
	log, _ := p.EnsureLog()
	defer log.Detach()
	g := Compute(p)

	// In-place modification: incrementally updatable.
	s := p.At(1) // x = n + 1
	p.NoteModified(s)
	op := s.Op // journal a no-op edit
	s.Op = op
	if !g.Update(log.Changes()) {
		t.Fatal("in-place modify should update incrementally")
	}
	log.Reset()
	st := g.Stats()
	if st.IncrementalUpdates != 1 || st.StructuralRebuilds != 0 {
		t.Fatalf("after incremental update: %+v", st)
	}

	// Structural change: a wholesale replacement (ChangeReset) falls back to
	// a full rebuild, preserving the counters accumulated so far.
	p.CopyFrom(p.Clone())
	if g.Update(log.Changes()) {
		t.Fatal("a program reset should force the structural fallback")
	}
	log.Reset()
	st = g.Stats()
	if st.IncrementalUpdates != 1 || st.StructuralRebuilds != 1 {
		t.Fatalf("after structural rebuild: %+v", st)
	}
}

// TestStatsAddSub: the aggregation helpers are componentwise.
func TestStatsAddSub(t *testing.T) {
	a := Stats{ScalarLookups: 5, ArrayLookups: 2, ControlLookups: 1, IncrementalUpdates: 3, StructuralRebuilds: 1}
	b := Stats{ScalarLookups: 3, ArrayLookups: 1, ControlLookups: 1, IncrementalUpdates: 2}
	sum := a.Add(b)
	if sum.ScalarLookups != 8 || sum.ArrayLookups != 3 || sum.IncrementalUpdates != 5 {
		t.Errorf("Add = %+v", sum)
	}
	diff := sum.Sub(b)
	if diff != a {
		t.Errorf("Sub = %+v, want %+v", diff, a)
	}
}
