package dataflow

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cfg"
	"repro/internal/frontend"
	"repro/internal/proggen"
	"repro/internal/workloads"
	"repro/ir"
)

func TestBitSetBasics(t *testing.T) {
	b := NewBitSet(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Has(0) || !b.Has(64) || !b.Has(129) || b.Has(1) {
		t.Fatal("set/has broken")
	}
	if b.Count() != 3 {
		t.Fatalf("count = %d", b.Count())
	}
	b.Clear(64)
	if b.Has(64) || b.Count() != 2 {
		t.Fatal("clear broken")
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if len(got) != 2 || got[0] != 0 || got[1] != 129 {
		t.Fatalf("ForEach = %v", got)
	}
	if b.Has(-1) || b.Has(1000) {
		t.Fatal("out-of-range Has must be false")
	}
}

func TestBitSetOps(t *testing.T) {
	a := NewBitSet(100)
	b := NewBitSet(100)
	a.Set(3)
	b.Set(3)
	b.Set(70)
	if changed := a.OrInto(b); !changed || !a.Has(70) {
		t.Fatal("OrInto broken")
	}
	if changed := a.OrInto(b); changed {
		t.Fatal("OrInto should report no change")
	}
	a.AndNotInto(b)
	if a.Count() != 0 {
		t.Fatal("AndNotInto broken")
	}
	c := a.Copy()
	c.Set(5)
	if a.Has(5) {
		t.Fatal("Copy must be independent")
	}
	if !NewBitSet(10).Equal(NewBitSet(10)) || NewBitSet(10).Equal(NewBitSet(11)) {
		t.Fatal("Equal broken")
	}
}

func TestBitSetProperty(t *testing.T) {
	// OrInto is idempotent and monotone in count.
	f := func(xs []uint8) bool {
		a := NewBitSet(256)
		b := NewBitSet(256)
		for i, x := range xs {
			if i%2 == 0 {
				a.Set(int(x))
			} else {
				b.Set(int(x))
			}
		}
		before := a.Count()
		a.OrInto(b)
		mid := a.Count()
		a.OrInto(b)
		return mid >= before && a.Count() == mid
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReachingDefsStraightLine(t *testing.T) {
	src := `
PROGRAM p
INTEGER x, y
x = 1
x = 2
y = x
END
`
	p := frontend.MustParse(src)
	a := Analyze(p)
	// The def at stmt 0 is killed by stmt 1; only def 1 reaches stmt 2.
	var reach []int
	a.ReachIn.At(2).ForEach(func(di int) {
		if a.Defs[di].Name == "x" {
			reach = append(reach, a.Defs[di].StmtIdx)
		}
	})
	if len(reach) != 1 || reach[0] != 1 {
		t.Fatalf("defs of x reaching stmt 2: %v, want [1]", reach)
	}
}

func TestReachingDefsBranches(t *testing.T) {
	src := `
PROGRAM p
INTEGER x, y
READ y
IF (y > 0) THEN
  x = 1
ELSE
  x = 2
ENDIF
y = x
END
`
	p := frontend.MustParse(src)
	a := Analyze(p)
	// Both branch definitions reach the final statement.
	last := p.Len() - 1
	var reach []int
	a.ReachIn.At(last).ForEach(func(di int) {
		if a.Defs[di].Name == "x" {
			reach = append(reach, a.Defs[di].StmtIdx)
		}
	})
	if len(reach) != 2 {
		t.Fatalf("defs of x reaching merge: %v, want two", reach)
	}
}

func TestReachingDefsLoopCarried(t *testing.T) {
	src := `
PROGRAM p
INTEGER i, s
s = 0
DO i = 1, 10
  s = s + 1
ENDDO
PRINT s
END
`
	p := frontend.MustParse(src)
	a := Analyze(p)
	// Inside the loop, both the initial def (stmt 0) and the loop def
	// (stmt 2) reach the body statement.
	var reach []int
	a.ReachIn.At(2).ForEach(func(di int) {
		if a.Defs[di].Name == "s" {
			reach = append(reach, a.Defs[di].StmtIdx)
		}
	})
	if len(reach) != 2 {
		t.Fatalf("defs of s reaching loop body: %v, want both", reach)
	}
	// At the print, the loop def and (via zero-trip) the initial def reach.
	var atPrint []int
	a.ReachIn.At(4).ForEach(func(di int) {
		if a.Defs[di].Name == "s" {
			atPrint = append(atPrint, a.Defs[di].StmtIdx)
		}
	})
	if len(atPrint) != 2 {
		t.Fatalf("defs of s reaching print: %v (zero-trip path missing?)", atPrint)
	}
}

func TestArrayDefsAreMayDefs(t *testing.T) {
	src := `
PROGRAM p
INTEGER i
REAL a(10), x
a(1) = 1.0
a(2) = 2.0
x = a(1)
END
`
	p := frontend.MustParse(src)
	a := Analyze(p)
	var reach []int
	a.ReachIn.At(2).ForEach(func(di int) {
		if a.Defs[di].Name == "a" {
			reach = append(reach, a.Defs[di].StmtIdx)
		}
	})
	if len(reach) != 2 {
		t.Fatalf("array defs must not kill each other: %v", reach)
	}
}

func TestUsesCollection(t *testing.T) {
	src := `
PROGRAM p
INTEGER i
REAL a(10), x
DO i = 1, 10
  a(i) = x + a(i-1)
ENDDO
END
`
	p := frontend.MustParse(src)
	a := Analyze(p)
	uses := a.UsesAt(1)
	// x at pos 2, a at pos 3, subscript i of a(i-1), subscript i of dst.
	names := map[string]int{}
	for _, u := range uses {
		names[u.Name]++
	}
	if names["x"] != 1 || names["a"] != 1 || names["i"] != 2 {
		t.Fatalf("uses = %+v", uses)
	}
	var posA int
	for _, u := range uses {
		if u.Name == "a" {
			posA = u.Pos
		}
	}
	if posA != 3 {
		t.Errorf("a used at pos %d, want 3", posA)
	}
}

func TestReachingUsesAntiDep(t *testing.T) {
	src := `
PROGRAM p
INTEGER x, y
y = x
x = 2
END
`
	p := frontend.MustParse(src)
	a := Analyze(p)
	// The use of x at stmt 0 must reach stmt 1 (anti dependence S0 → S1).
	found := false
	a.UseReachIn.At(1).ForEach(func(ui int) {
		u := a.Uses[ui]
		if u.Name == "x" && u.StmtIdx == 0 {
			found = true
		}
	})
	if !found {
		t.Fatal("upward-exposed use of x must reach the redefinition")
	}
}

func TestReachingUsesKilledByDef(t *testing.T) {
	src := `
PROGRAM p
INTEGER x, y, z
y = x
x = 2
z = x
x = 3
END
`
	p := frontend.MustParse(src)
	a := Analyze(p)
	// Use of x at stmt 0 must NOT reach stmt 3: the def at stmt 1 kills it.
	leaked := false
	a.UseReachIn.At(3).ForEach(func(ui int) {
		u := a.Uses[ui]
		if u.Name == "x" && u.StmtIdx == 0 {
			leaked = true
		}
	})
	if leaked {
		t.Fatal("intervening definition must kill the upward-exposed use")
	}
}

func TestLiveness(t *testing.T) {
	src := `
PROGRAM p
INTEGER x, y, z
x = 1
y = 2
z = x
PRINT z
END
`
	p := frontend.MustParse(src)
	a := Analyze(p)
	if !a.LiveOutOf(0, "x") {
		t.Error("x must be live after its definition")
	}
	if a.LiveOutOf(1, "y") {
		t.Error("y is dead (never used)")
	}
	if !a.LiveOutOf(2, "z") {
		t.Error("z must be live before print")
	}
	if a.LiveOutOf(3, "z") {
		t.Error("nothing is live after the last statement")
	}
	if a.LiveOutOf(-1, "x") || a.LiveOutOf(99, "x") {
		t.Error("out-of-range queries must be false")
	}
}

func TestLivenessThroughLoop(t *testing.T) {
	src := `
PROGRAM p
INTEGER i, s
s = 0
DO i = 1, 10
  s = s + i
ENDDO
PRINT s
END
`
	p := frontend.MustParse(src)
	a := Analyze(p)
	if !a.LiveOutOf(0, "s") {
		t.Error("s live into the loop")
	}
	if !a.LiveOutOf(2, "s") {
		t.Error("s live around the back edge")
	}
}

func TestDoHeadDefinesLCV(t *testing.T) {
	p := frontend.MustParse("PROGRAM p\nINTEGER i, x\nDO i = 1, 3\nx = i\nENDDO\nEND")
	a := Analyze(p)
	defs := a.DefsAt(0)
	if len(defs) != 1 || defs[0].Name != "i" {
		t.Fatalf("DO defs = %v", defs)
	}
	// i's def reaches the body use.
	found := false
	a.ReachIn.At(1).ForEach(func(di int) {
		if a.Defs[di].Name == "i" {
			found = true
		}
	})
	if !found {
		t.Error("LCV def must reach the body")
	}
}

// reachLiveOut is a path-based reference for liveness: name is live at exit
// of statement i iff some CFG path from a successor of i reaches a use of
// name with no scalar definition of name in between (a statement that both
// uses and defines name counts as a use).
func reachLiveOut(a *Analysis, i int, name string) bool {
	seen := make([]bool, len(a.Graph.Succ))
	stack := append([]int(nil), a.Graph.Succ[i]...)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[s] {
			continue
		}
		seen[s] = true
		used, killed := false, false
		for _, u := range a.UsesAt(s) {
			used = used || u.Name == name
		}
		for _, d := range a.DefsAt(s) {
			killed = killed || (!d.IsArray && d.Name == name)
		}
		if used {
			return true
		}
		if !killed {
			stack = append(stack, a.Graph.Succ[s]...)
		}
	}
	return false
}

// analysisNames lists every location name the analysis saw.
func analysisNames(a *Analysis) []string {
	set := map[string]bool{}
	for _, d := range a.Defs {
		set[d.Name] = true
	}
	for _, u := range a.Uses {
		set[u.Name] = true
	}
	var out []string
	for n := range set {
		out = append(out, n)
	}
	return out
}

// TestLivenessOnDemand: neither Analyze nor AnalyzeNames computes liveness;
// the first LiveOutOf does, from the snapshot taken at Analyze time, and
// every answer matches the path-based reference — also after the program
// has been edited since the analysis ran.
func TestLivenessOnDemand(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		p := proggen.Generate(seed, proggen.Config{MaxStmts: 40})
		a := Analyze(p)
		if an := new(Workspace).AnalyzeNames(p, map[string]bool{"n": true}); a.liveOut != nil || an.liveOut != nil {
			t.Fatalf("seed %d: liveness computed before any LiveOutOf call", seed)
		}
		// Edit the program after the analysis: liveness must still describe
		// the analyzed snapshot, as it did when Analyze computed it eagerly.
		p.InsertAt(0, ir.CloneStmt(p.At(p.Len()-1)))
		p.Delete(p.At(1))
		names := analysisNames(a)
		for i := range a.Graph.Succ {
			for _, name := range names {
				if got, want := a.LiveOutOf(i, name), reachLiveOut(a, i, name); got != want {
					t.Fatalf("seed %d: LiveOutOf(%d, %s) = %t, reference %t", seed, i, name, got, want)
				}
			}
		}
	}
}

// TestLivenessConcurrentFirstUse: concurrent first callers share one
// computation (run under -race) and all see the same answers.
func TestLivenessConcurrentFirstUse(t *testing.T) {
	p := proggen.Generate(5, proggen.Config{MaxStmts: 60})
	ref := Analyze(p)
	names := analysisNames(ref)
	ref.LiveOutOf(0, names[0]) // settle the reference before the race
	a := Analyze(p)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := p.Len() - 1; i >= 0; i-- {
				for _, name := range names {
					if a.LiveOutOf(i, name) != ref.LiveOutOf(i, name) {
						errs <- name
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for name := range errs {
		t.Errorf("concurrent LiveOutOf disagrees with a sequential analysis on %s", name)
	}
}

// TestAnalyzeNamesIsRestriction is the property the incremental dependence
// updater rests on: for any name set N, AnalyzeNames(p, N) equals the
// N-restriction of Analyze(p). The restricted Defs and Uses are the full
// lists filtered by name, in order; every one of the seven fact families
// must agree bit for bit once restricted indices are mapped to full ones.
func TestAnalyzeNamesIsRestriction(t *testing.T) {
	// One Workspace serves every analysis: its buffers are reused across
	// name sets and programs, and its CFGs across calls on one program
	// until an insertion changes the statement kinds.
	var ws Workspace
	for seed := int64(1); seed <= 30; seed++ {
		p := proggen.Generate(seed, proggen.Config{})
		full := Analyze(p)
		var all []string
		seen := map[string]bool{}
		for _, d := range full.Defs {
			if !seen[d.Name] {
				seen[d.Name] = true
				all = append(all, d.Name)
			}
		}
		for _, u := range full.Uses {
			if !seen[u.Name] {
				seen[u.Name] = true
				all = append(all, u.Name)
			}
		}
		sort.Strings(all)
		r := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 6; trial++ {
			names := map[string]bool{}
			for _, name := range all {
				if r.Intn(3) == 0 {
					names[name] = true
				}
			}
			checkRestriction(t, seed, p, full, new(Workspace).AnalyzeNames(p, names), names)
			checkRestriction(t, seed, p, full, ws.AnalyzeNames(p, names), names)
		}
		// A straight-line insertion shifts every later CFG node.
		p.InsertAt(0, &ir.Stmt{Kind: ir.SAssign, Op: ir.OpCopy, Dst: ir.VarOp(all[0]), A: ir.IntOp(1)})
		names := map[string]bool{all[0]: true}
		checkRestriction(t, seed, p, Analyze(p), ws.AnalyzeNames(p, names), names)
	}
}

func checkRestriction(t *testing.T, seed int64, p *ir.Program, full, sub *Analysis, names map[string]bool) {
	t.Helper()
	var defMap, useMap []int // restricted index → full index
	for fi, d := range full.Defs {
		if names[d.Name] {
			defMap = append(defMap, fi)
		}
	}
	for fi, u := range full.Uses {
		if names[u.Name] {
			useMap = append(useMap, fi)
		}
	}
	if len(defMap) != len(sub.Defs) || len(useMap) != len(sub.Uses) {
		t.Fatalf("seed %d %v: %d defs / %d uses, want %d / %d",
			seed, names, len(sub.Defs), len(sub.Uses), len(defMap), len(useMap))
	}
	for ri, fi := range defMap {
		if sub.Defs[ri] != full.Defs[fi] {
			t.Fatalf("seed %d: def %d = %+v, want %+v", seed, ri, sub.Defs[ri], full.Defs[fi])
		}
	}
	for ri, fi := range useMap {
		if sub.Uses[ri] != full.Uses[fi] {
			t.Fatalf("seed %d: use %d = %+v, want %+v", seed, ri, sub.Uses[ri], full.Uses[fi])
		}
	}
	same := func(family string, got, want BitSet, idx []int) {
		if got.Len() != len(idx) {
			t.Fatalf("seed %d %s: domain %d, want %d", seed, family, got.Len(), len(idx))
		}
		for ri, fi := range idx {
			if got.Has(ri) != want.Has(fi) {
				t.Fatalf("seed %d %v %s: restricted bit %d = %t, full bit %d = %t",
					seed, names, family, ri, got.Has(ri), fi, want.Has(fi))
			}
		}
	}
	for i := 0; i < p.Len(); i++ {
		same("ReachIn", sub.ReachIn.At(i), full.ReachIn.At(i), defMap)
		same("ReachInF", sub.ReachInF.At(i), full.ReachInF.At(i), defMap)
		same("UseReachIn", sub.UseReachIn.At(i), full.UseReachIn.At(i), useMap)
		same("UseReachInF", sub.UseReachInF.At(i), full.UseReachInF.At(i), useMap)
		same("ExposedUses", sub.ExposedUses.At(i), full.ExposedUses.At(i), useMap)
		same("ExposedDefs", sub.ExposedDefs.At(i), full.ExposedDefs.At(i), defMap)
	}
	same("UpwardExposed", sub.UpwardExposed, full.UpwardExposed, useMap)
}

// roundRobinForward is the round-robin forward solver the seeded worklist
// replaced, kept as TestWorklistMatchesRoundRobin's reference: it sweeps
// every statement in order until a sweep changes nothing. It computes
// IN[i] = ∪_{p ∈ pred(i)} OUT[p] with OUT[i] = gen[i] ∪ (IN[i] − kill[i])
// into the empty sets in, using out as scratch, and returns in.
func roundRobinForward(g *cfg.Graph, gen, kill, in, out []BitSet) []BitSet {
	for i := range out {
		copy(out[i].words, gen[i].words)
	}
	for changed := true; changed; {
		changed = false
		for i := range in {
			for _, pi := range g.Pred[i] {
				if in[i].OrInto(out[pi]) {
					changed = true
				}
			}
			iw, gw, kw, ow := in[i].words, gen[i].words, kill[i].words, out[i].words
			for w := range ow {
				if v := gw[w] | iw[w]&^kw[w]; v != ow[w] {
					ow[w] = v
					changed = true
				}
			}
		}
	}
	return in
}

// roundRobinBackward is the round-robin backward solver the seeded
// worklist replaced: EXPOSED[i] = gen[i] ∪ ((∪_{s ∈ succ(i)} EXPOSED[s]) −
// kill[i]) into the empty sets exp, sweeping every statement in reverse
// order until a sweep changes nothing.
func roundRobinBackward(g *cfg.Graph, gen, kill, exp []BitSet) []BitSet {
	for i := range exp {
		copy(exp[i].words, gen[i].words)
	}
	for changed := true; changed; {
		changed = false
		for i := len(exp) - 1; i >= 0; i-- {
			gw, kw, ew := gen[i].words, kill[i].words, exp[i].words
			for w := range ew {
				var acc uint64
				for _, si := range g.Succ[i] {
					acc |= exp[si].words[w]
				}
				if v := gw[w] | acc&^kw[w]; v != ew[w] {
					ew[w] = v
					changed = true
				}
			}
		}
	}
	return exp
}

// reference holds the gen and kill sets built pairwise from an analysis's
// site lists — a scalar definition kills the other scalar definitions of
// its name, and the scalar uses of its name at other statements.
type reference struct {
	a                        *Analysis
	dGen, dKill, uGen, uKill []BitSet
}

func newReference(a *Analysis) *reference {
	r := &reference{a: a}
	r.dGen, r.dKill = r.family(len(a.Defs)), r.family(len(a.Defs))
	r.uGen, r.uKill = r.family(len(a.Uses)), r.family(len(a.Uses))
	for di, d := range a.Defs {
		r.dGen[d.StmtIdx].Set(di)
		if d.IsArray {
			continue
		}
		for dj, e := range a.Defs {
			if dj != di && !e.IsArray && e.Name == d.Name {
				r.dKill[d.StmtIdx].Set(dj)
			}
		}
		for ui, u := range a.Uses {
			if !u.IsArray && u.Name == d.Name && u.StmtIdx != d.StmtIdx {
				r.uKill[d.StmtIdx].Set(ui)
			}
		}
	}
	for ui, u := range a.Uses {
		r.uGen[u.StmtIdx].Set(ui)
	}
	return r
}

// family returns one empty set over domain per statement.
func (r *reference) family(domain int) []BitSet {
	f := make([]BitSet, len(r.a.Graph.Succ))
	for i := range f {
		f[i] = NewBitSet(domain)
	}
	return f
}

// flat copies sets into a Facts over domain.
func flat(sets []BitSet, domain int) Facts {
	k := (domain + 63) / 64
	f := Facts{words: make([]uint64, len(sets)*k), stride: k, sites: domain, stmts: len(sets)}
	for i, b := range sets {
		copy(f.words[i*k:], b.words)
	}
	return f
}

// seeds returns the statements whose gen set is not empty, as a word set.
func seeds(gen []BitSet) []uint64 {
	s := make([]uint64, (len(gen)+63)/64)
	for i, b := range gen {
		if b.Count() > 0 {
			setBit(s, i)
		}
	}
	return s
}

// checkAgainstRoundRobin fails unless every fact family of a equals the
// round-robin solvers' result bit for bit.
func checkAgainstRoundRobin(t *testing.T, what string, a *Analysis) {
	t.Helper()
	r := newReference(a)
	nd, nu := len(a.Defs), len(a.Uses)
	want := [6][]BitSet{
		roundRobinForward(a.Graph, r.dGen, r.dKill, r.family(nd), r.family(nd)),
		roundRobinForward(a.FGraph, r.dGen, r.dKill, r.family(nd), r.family(nd)),
		roundRobinForward(a.Graph, r.uGen, r.uKill, r.family(nu), r.family(nu)),
		roundRobinForward(a.FGraph, r.uGen, r.uKill, r.family(nu), r.family(nu)),
		roundRobinBackward(a.FGraph, r.uGen, r.uKill, r.family(nu)),
		roundRobinBackward(a.FGraph, r.dGen, r.dKill, r.family(nd)),
	}
	got := [6]Facts{a.ReachIn, a.ReachInF, a.UseReachIn, a.UseReachInF, a.ExposedUses, a.ExposedDefs}
	names := [6]string{"ReachIn", "ReachInF", "UseReachIn", "UseReachInF", "ExposedUses", "ExposedDefs"}
	for f := range got {
		sameFacts(t, what+" "+names[f], got[f], want[f])
	}
	upward := NewBitSet(nu)
	if len(a.Graph.Succ) > 0 {
		upward = roundRobinBackward(a.Graph, r.uGen, r.uKill, r.family(nu))[0]
	}
	if !a.UpwardExposed.Equal(upward) {
		t.Fatalf("%s UpwardExposed: %v, round-robin %v", what, members(a.UpwardExposed), members(upward))
	}

	// The analysis keeps only the entry's row of the full-graph backward
	// solve, which the back edges never change: the other rows are checked
	// here, the only place a backward solve needs back-edge rounds.
	mark := make([]uint64, (len(a.Graph.Succ)+63)/64)
	for _, dom := range []struct {
		gen, kill []BitSet
		sites     int
	}{{r.uGen, r.uKill, nu}, {r.dGen, r.dKill, nd}} {
		exp := solveBackward(a.Graph, flat(dom.gen, dom.sites), flat(dom.kill, dom.sites),
			flat(r.family(dom.sites), dom.sites), seeds(dom.gen), mark)
		sameFacts(t, what+" full-graph backward", exp, roundRobinBackward(a.Graph, dom.gen, dom.kill, r.family(dom.sites)))
	}
}

func sameFacts(t *testing.T, what string, got Facts, want []BitSet) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("%s: %d statements, want %d", what, got.Len(), len(want))
	}
	for i, w := range want {
		if g := got.At(i); !g.Equal(w) {
			t.Fatalf("%s at statement %d: %v, round-robin %v", what, i, members(g), members(w))
		}
	}
}

func members(b BitSet) []int {
	var out []int
	b.ForEach(func(i int) { out = append(out, i) })
	return out
}

// nestedBranchLoops nests an IF/ELSE in two DO loops. The definitions of x
// and y in the branches reach statements before them only around a back
// edge, so the worklist needs rounds beyond its first pass.
const nestedBranchLoops = `
PROGRAM nest
INTEGER i, j, x, y, z
x = 0
y = 0
DO i = 1, 4
  z = x + y
  DO j = 1, 3
    PRINT x
    IF (j > i) THEN
      x = z + j
    ELSE
      y = x
      z = y + 1
    ENDIF
  ENDDO
  PRINT z
ENDDO
PRINT x, y
END
`

// TestWorklistMatchesRoundRobin checks that the seeded worklist solvers
// reach the round-robin solvers' fixpoint bit for bit, on full analyses
// and on random name subsets, over the example programs, the workloads,
// generated programs and a hand-written case that needs back-edge rounds.
func TestWorklistMatchesRoundRobin(t *testing.T) {
	type program struct {
		name string
		p    *ir.Program
	}
	var progs []program
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.mf"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs: %v", err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{filepath.Base(f), frontend.MustParse(string(raw))})
	}
	for _, w := range workloads.All {
		progs = append(progs, program{w.Name, w.Program()})
	}
	for seed := int64(1); seed <= 200; seed++ {
		progs = append(progs, program{"proggen", proggen.Generate(seed, proggen.Config{})})
	}
	for seed := int64(1); seed <= 3; seed++ {
		progs = append(progs, program{"proggen-100", proggen.Generate(seed, proggen.Config{MaxStmts: 100})})
	}
	nest := frontend.MustParse(nestedBranchLoops)
	progs = append(progs, program{"nest", nest})

	// The hand-written case must exercise back edges: x's THEN definition
	// reaches the inner loop's PRINT x, and y's ELSE definition reaches
	// z = x + y, each only around a loop.
	a := Analyze(nest)
	aroundLoop := false
	for i := range nest.Len() {
		a.ReachIn.At(i).ForEach(func(di int) { aroundLoop = aroundLoop || a.Defs[di].StmtIdx > i })
	}
	if !aroundLoop {
		t.Fatal("nestedBranchLoops: no definition reaches an earlier statement")
	}

	var ws Workspace
	r := rand.New(rand.NewSource(1))
	for _, pr := range progs {
		full := Analyze(pr.p)
		checkAgainstRoundRobin(t, pr.name+" full", full)
		checkAgainstRoundRobin(t, pr.name+" full (workspace)", ws.AnalyzeNames(pr.p, nil))
		all := analysisNames(full)
		sort.Strings(all)
		for trial := 0; trial < 3; trial++ {
			names := map[string]bool{}
			for _, name := range all {
				if r.Intn(3) == 0 {
					names[name] = true
				}
			}
			checkAgainstRoundRobin(t, pr.name+" restricted", ws.AnalyzeNames(pr.p, names))
		}
	}
}
