package dep

import (
	"fmt"
	"math/rand"
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

// specPatterns are the direction patterns the spec library's dependence
// predicates query with (carried and independent predicates query nil),
// plus an empty non-nil pattern, which shares nil's memo entry.
var specPatterns = []Vector{nil, {}, {DirEQ}, {DirLT, DirGT}, {DirLT, DirEQ, DirGT}, {DirLT, DirGT, DirAny}}

// checkWildcardCounts compares g's kind-only Counts with a fresh Compute of
// its program and with a Visit walk, for every kind and spec pattern: the
// first Count after an edit, its memoized repeat and the walk must give
// the fresh graph's count, and all three must move Stats alike. The first
// Count of each kind must find the memo empty. It returns how many counts
// were nonzero.
func checkWildcardCounts(t *testing.T, what string, g *Graph) (nonzero int) {
	t.Helper()
	fresh := Compute(g.Prog)
	for kind := Flow; kind <= Control; kind++ {
		for i, pat := range specPatterns {
			want := fresh.Count(kind, nil, nil, pat)
			var deltas [2]Stats
			for rep := range deltas {
				before := g.Stats()
				if got := g.Count(kind, nil, nil, pat); got != want {
					t.Fatalf("%s: Count(%s, %s) #%d = %d, a fresh graph counts %d", what, kind, pat, rep+1, got, want)
				}
				deltas[rep] = g.Stats().Sub(before)
			}
			if i == 0 && len(g.counts[kind].entries) != 1 {
				t.Fatalf("%s: %s memo held %d patterns after its first Count, want 1", what, kind, len(g.counts[kind].entries))
			}
			before, walked := g.Stats(), 0
			g.Visit(kind, nil, nil, pat, func(*Dependence) { walked++ })
			walk := g.Stats().Sub(before)
			if walked != want || deltas[0] != walk || deltas[1] != walk {
				t.Fatalf("%s: Count(%s, %s): walk found %d of %d, Stats moved %+v and %+v, walk %+v",
					what, kind, pat, walked, want, deltas[0], deltas[1], walk)
			}
			if want > 0 {
				nonzero++
			}
		}
		if n := len(g.counts[kind].entries); n != len(specPatterns)-1 {
			t.Fatalf("%s: %s memo holds %d patterns, want %d", what, kind, n, len(specPatterns)-1)
		}
	}
	return nonzero
}

// TestWildcardCountMemo: kind-only Counts answered from the memo equal a
// fresh walk, count and Stats delta both, and the memo is dropped by
// every incremental update and by the structural fallback, so the counts
// track the edited graph.
func TestWildcardCountMemo(t *testing.T) {
	progs := []*ir.Program{hompackGraph(t).Prog}
	for seed := int64(1); seed <= 3; seed++ {
		progs = append(progs, proggen.Generate(seed, proggen.Config{MaxStmts: 100}))
	}
	for _, p := range progs {
		log, _ := p.EnsureLog()
		g := Compute(p)
		nonzero := checkWildcardCounts(t, p.Name+" Compute", g)
		r := rand.New(rand.NewSource(int64(p.Len())))
		for step := 0; step < 10; step++ {
			mutate(r, p)
			g.Update(log.Changes())
			log.Reset()
			nonzero += checkWildcardCounts(t, fmt.Sprintf("%s update %d", p.Name, step), g)
		}
		// A wholesale replacement by an edited copy takes the structural
		// fallback.
		q := p.Clone()
		for range 5 {
			mutate(r, q)
		}
		p.CopyFrom(q)
		rebuilds := g.Stats().StructuralRebuilds
		g.Update(log.Changes())
		log.Reset()
		if g.Stats().StructuralRebuilds != rebuilds+1 {
			t.Fatalf("%s: replacing the program did not recompute the graph", p.Name)
		}
		nonzero += checkWildcardCounts(t, p.Name+" recompute", g)
		if nonzero == 0 {
			t.Fatalf("%s: every count was 0; the comparison is degenerate", p.Name)
		}
	}
}
