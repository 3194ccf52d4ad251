package dep

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/frontend"
	"repro/internal/proggen"
	"repro/ir"
)

// allPairTests is pairTests without its pruning: the subscript tests over
// every ordered pair of one array's accesses, skipping only the pairs with
// neither statement in a non-nil edited set. skippable counts the tested
// pairs pairTests prunes (no common loop, source not before sink).
func (g *Graph) allPairTests(group []access, lt *loopTable, edited map[*ir.Stmt]bool, emit func(Dependence)) (skippable int) {
	for i := range group {
		for j := range group {
			src, dst := &group[i], &group[j]
			if edited != nil && !edited[src.stmt] && !edited[dst.stmt] {
				continue
			}
			kind, ok := pairKind(src, dst)
			if !ok {
				continue
			}
			if len(lt.common(int(src.idx), int(dst.idx))) == 0 && src.idx >= dst.idx {
				skippable++
			}
			g.testPair(kind, src, dst, lt, emit)
		}
	}
	return skippable
}

// edgeKey renders every field of d, statements by identity, so two edge
// lists compare as multisets by their sorted keys.
func edgeKey(d Dependence) string {
	return fmt.Sprintf("%p %p %d %s %d %d %d %t %v", d.Src, d.Dst, d.Kind, d.Var, d.SrcPos, d.DstPos, d.Level, d.Carried, d.Vec)
}

// checkPairPruning runs pairTests and allPairTests over every access group
// of g's program under edited and fails unless both emit the same edge
// multiset. It returns the edges emitted and the pairs pruned.
func checkPairPruning(t *testing.T, what string, g *Graph, edited map[*ir.Stmt]bool) (edges, pruned int) {
	t.Helper()
	groups := g.collectArrayGroups(edited)
	defer func() {
		for i := range groups { // empty the scratch groups, as arrayDeps does
			clear(groups[i])
			groups[i] = groups[i][:0]
		}
	}()
	for _, group := range groups {
		var got, want []string
		g.pairTests(group, g.lt, edited, func(d Dependence) { got = append(got, edgeKey(d)) })
		pruned += g.allPairTests(group, g.lt, edited, func(d Dependence) { want = append(want, edgeKey(d)) })
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: array %s: pruned pair tests emitted %d edges, all pairs %d\npruned: %v\nall:    %v",
				what, group[0].op.Name, len(got), len(want), got, want)
		}
		edges += len(got)
	}
	return edges, pruned
}

// TestArrayPairPruning checks that skipping the access pairs that share no
// loop and whose source does not precede its sink loses no edge: over the
// examples and generated programs, pairTests emits exactly the edge
// multiset of testing every ordered pair, for full builds and for
// incremental updates' edited sets.
func TestArrayPairPruning(t *testing.T) {
	type prog struct {
		name string
		p    *ir.Program
	}
	var progs []prog
	files, err := filepath.Glob(filepath.Join("..", "examples", "programs", "*.mf"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs: %v", err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{filepath.Base(f), frontend.MustParse(string(raw))})
	}
	for seed := int64(1); seed <= 20; seed++ {
		progs = append(progs, prog{fmt.Sprintf("proggen %d", seed), proggen.Generate(seed, proggen.Config{})})
	}
	for seed := int64(1); seed <= 3; seed++ {
		progs = append(progs, prog{fmt.Sprintf("proggen-100 %d", seed), proggen.Generate(seed, proggen.Config{MaxStmts: 100})})
	}
	var edges, pruned, incEdges, incPruned int
	for i, pr := range progs {
		p := pr.p
		log, _ := p.EnsureLog()
		g := Compute(p)
		e, n := checkPairPruning(t, pr.name+" full build", g, nil)
		edges, pruned = edges+e, pruned+n
		r := rand.New(rand.NewSource(int64(i) + 1))
		for step := 0; step < 10; step++ {
			mutate(r, p)
			changes := log.Changes()
			g.Update(changes)
			log.Reset()
			// The statements the journal names plus a few at random, as
			// an update's edited set would hold them.
			edited := map[*ir.Stmt]bool{}
			for _, c := range changes {
				edited[c.Stmt] = true
			}
			for k := 0; k < 3 && p.Len() > 0; k++ {
				edited[p.At(r.Intn(p.Len()))] = true
			}
			e, n := checkPairPruning(t, fmt.Sprintf("%s update %d", pr.name, step), g, edited)
			incEdges, incPruned = incEdges+e, incPruned+n
		}
	}
	t.Logf("full builds: %d edges, %d pairs pruned; updates: %d edges, %d pairs pruned", edges, pruned, incEdges, incPruned)
	if edges == 0 || pruned == 0 || incEdges == 0 || incPruned == 0 {
		t.Fatal("the comparison is degenerate: no edges or no pruned pairs")
	}
}

// TestSiblingLoopIndexDisproof pins an open defect of the subscript tests.
// The two loops share their index name but no loop: the first writes a(1)
// to a(3), the second reads a(2) to a(4), so a(2) and a(3) flow from one to
// the other. constrainDim treats i as a loop-invariant symbol because it
// indexes no common loop, cancels its equal coefficients, and the ZIV test
// on 0 against 1 then disproves the dependence. No miscompile is known to
// follow from it. When the defect is fixed this test fails: delete it.
func TestSiblingLoopIndexDisproof(t *testing.T) {
	p := frontend.MustParse(`
PROGRAM sibling
INTEGER i, x
INTEGER a(10)
DO i = 1, 3
  a(i) = 5
ENDDO
DO i = 1, 3
  x = a(i+1)
  PRINT x
ENDDO
END`)
	g := Compute(p)
	w, r := p.At(1), p.At(4)
	if w.Dst.Name != "a" || r.A.Name != "a" {
		t.Fatalf("unexpected statement layout:\n%s", p)
	}
	if deps := g.Query(Flow, w, r, nil); len(deps) != 0 {
		t.Fatalf("the flow dependence on a across sibling loops is found now (%v): the defect is fixed, delete this test", deps)
	}
}
