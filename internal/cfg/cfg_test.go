package cfg

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/frontend"
	"repro/ir"
)

func has(edges []int, t int) bool {
	for _, e := range edges {
		if e == t {
			return true
		}
	}
	return false
}

func TestStraightLine(t *testing.T) {
	p := frontend.MustParse("PROGRAM p\nINTEGER x, y\nx = 1\ny = 2\nPRINT y\nEND")
	g := Build(p)
	if !has(g.Succ[0], 1) || !has(g.Succ[1], 2) {
		t.Fatalf("fallthrough edges missing:\n%s", g)
	}
	if len(g.Succ[2]) != 0 {
		t.Fatalf("last statement must have no successors")
	}
	if !has(g.Pred[1], 0) {
		t.Fatal("pred edges missing")
	}
}

func TestLoopEdges(t *testing.T) {
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
	g := Build(p)
	// 0: s=0, 1: do, 2: s=s+i, 3: enddo, 4: print
	if !has(g.Succ[1], 2) {
		t.Error("DO → body missing")
	}
	if !has(g.Succ[1], 4) {
		t.Error("DO → zero-trip exit missing")
	}
	if !has(g.Succ[3], 1) {
		t.Error("ENDDO → DO back edge missing")
	}
	if has(g.Succ[3], 4) {
		t.Error("ENDDO should not fall through; exit is modeled at the head")
	}
}

func TestEmptyLoopBody(t *testing.T) {
	p := frontend.MustParse("PROGRAM p\nINTEGER i\nDO i = 1, 3\nENDDO\nEND")
	g := Build(p)
	if !has(g.Succ[0], 1) {
		t.Error("DO → ENDDO missing for empty body")
	}
	if !has(g.Succ[1], 0) {
		t.Error("back edge missing")
	}
}

func TestIfElseEdges(t *testing.T) {
	src := `
PROGRAM p
INTEGER x, y
READ x
IF (x > 0) THEN
  y = 1
ELSE
  y = 2
ENDIF
PRINT y
END
`
	p := frontend.MustParse(src)
	g := Build(p)
	// 0: read, 1: if, 2: y=1, 3: else, 4: y=2, 5: endif, 6: print
	if !has(g.Succ[1], 2) || !has(g.Succ[1], 4) {
		t.Fatalf("IF must branch to both arms:\n%s", g)
	}
	if !has(g.Succ[3], 5) {
		t.Error("ELSE must jump to ENDIF")
	}
	if has(g.Succ[3], 4) {
		t.Error("THEN branch must not fall into ELSE branch")
	}
	if !has(g.Succ[2], 3) {
		t.Error("then-body falls through to the ELSE marker (which jumps)")
	}
	if !has(g.Succ[5], 6) {
		t.Error("ENDIF falls through")
	}
}

func TestIfWithoutElse(t *testing.T) {
	src := `
PROGRAM p
INTEGER x
READ x
IF (x > 0) THEN
  x = 0
ENDIF
PRINT x
END
`
	p := frontend.MustParse(src)
	g := Build(p)
	// 0: read, 1: if, 2: x=0, 3: endif, 4: print
	if !has(g.Succ[1], 2) || !has(g.Succ[1], 3) {
		t.Fatalf("IF without ELSE must branch to body and ENDIF:\n%s", g)
	}
}

func TestReachable(t *testing.T) {
	p := frontend.MustParse("PROGRAM p\nINTEGER x\nx = 1\nPRINT x\nEND")
	g := Build(p)
	r := g.Reachable()
	for i, ok := range r {
		if !ok {
			t.Errorf("stmt %d unreachable", i)
		}
	}
}

func TestBlocks(t *testing.T) {
	src := `
PROGRAM p
INTEGER x, y
x = 1
y = 2
IF (x > 0) THEN
  y = 3
ENDIF
PRINT y
END
`
	p := frontend.MustParse(src)
	g := Build(p)
	blocks := g.Blocks()
	if len(blocks) < 3 {
		t.Fatalf("expected ≥3 blocks, got %d: %v", len(blocks), blocks)
	}
	// First block must contain the two straight-line assignments + if.
	if blocks[0].Start != 0 {
		t.Errorf("first block starts at %d", blocks[0].Start)
	}
	// Every statement must be covered exactly once.
	covered := make([]bool, p.Len())
	for _, b := range blocks {
		for i := b.Start; i <= b.End; i++ {
			if covered[i] {
				t.Fatalf("stmt %d in two blocks", i)
			}
			covered[i] = true
		}
	}
	for i, c := range covered {
		if !c {
			t.Errorf("stmt %d not in any block", i)
		}
	}
}

func TestNestedLoopGraph(t *testing.T) {
	src := `
PROGRAM p
INTEGER i, j
REAL a(10,10)
DO i = 1, 10
  DO j = 1, 10
    a(i,j) = 0.0
  ENDDO
ENDDO
END
`
	p := frontend.MustParse(src)
	g := Build(p)
	// 0: do i, 1: do j, 2: assign, 3: enddo j, 4: enddo i
	if !has(g.Succ[3], 1) {
		t.Error("inner back edge missing")
	}
	if !has(g.Succ[4], 0) {
		t.Error("outer back edge missing")
	}
	if !has(g.Succ[1], 4) {
		t.Error("inner zero-trip exit should reach outer ENDDO")
	}
	_ = ir.Loops(p)
}

// scanBuild is the bracket-scan construction BuildBoth replaces: one
// ir.MatchingEnd / MatchingHead / MatchingEndIf scan per bracket and a
// forward scan per ELSE. TestBuildBothMatchesScans holds the one-pass
// builder to it.
func scanBuild(p *ir.Program, withBackEdges bool) *Graph {
	n := p.Len()
	g := &Graph{Prog: p, Succ: make([][]int, n), Pred: make([][]int, n)}
	add := func(from, to int) {
		if to < 0 || to >= n || slices.Contains(g.Succ[from], to) {
			return
		}
		g.Succ[from] = append(g.Succ[from], to)
		g.Pred[to] = append(g.Pred[to], from)
	}
	elseEnd := func(els *ir.Stmt) *ir.Stmt {
		depth := 0
		for i := p.Index(els) + 1; i < n; i++ {
			switch p.At(i).Kind {
			case ir.SIf:
				depth++
			case ir.SEndIf:
				if depth == 0 {
					return p.At(i)
				}
				depth--
			}
		}
		return nil
	}
	for i := 0; i < n; i++ {
		s := p.At(i)
		switch s.Kind {
		case ir.SDoHead:
			add(i, i+1)
			if end := ir.MatchingEnd(p, s); end != nil {
				add(i, p.Index(end)+1)
			}
		case ir.SDoEnd:
			if !withBackEdges {
				add(i, i+1)
			} else if head := ir.MatchingHead(p, s); head != nil {
				add(i, p.Index(head))
			}
		case ir.SIf:
			els, endif := ir.MatchingEndIf(p, s)
			add(i, i+1)
			switch {
			case els != nil:
				add(i, p.Index(els)+1)
			case endif != nil:
				add(i, p.Index(endif))
			}
		case ir.SElse:
			if endif := elseEnd(s); endif != nil {
				add(i, p.Index(endif))
			}
		default:
			add(i, i+1)
		}
	}
	return g
}

// TestBuildBothMatchesScans: the one-pass bracket matcher yields the same
// successor and predecessor lists, order included, as per-bracket scans —
// on random statement-kind sequences, so unbalanced and stray brackets
// are covered along with well-formed nesting.
func TestBuildBothMatchesScans(t *testing.T) {
	kinds := []ir.StmtKind{ir.SAssign, ir.SDoHead, ir.SDoEnd, ir.SIf, ir.SElse, ir.SEndIf}
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		p := ir.NewProgram("random")
		for n := r.Intn(24); n > 0; n-- {
			p.Append(&ir.Stmt{Kind: kinds[r.Intn(len(kinds))]})
		}
		full, fwd := BuildBoth(p)
		for _, c := range []struct {
			got           *Graph
			withBackEdges bool
		}{{full, true}, {fwd, false}} {
			want := scanBuild(p, c.withBackEdges)
			for i := range want.Succ {
				if !slices.Equal(c.got.Succ[i], want.Succ[i]) || !slices.Equal(c.got.Pred[i], want.Pred[i]) {
					t.Fatalf("trial %d back edges %t: node %d succ %v pred %v, want succ %v pred %v\n%s",
						trial, c.withBackEdges, i, c.got.Succ[i], c.got.Pred[i], want.Succ[i], want.Pred[i], p)
				}
			}
		}
	}
}
