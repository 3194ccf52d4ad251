package dep

import (
	"cmp"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/frontend"
	"repro/internal/proggen"
	"repro/ir"
)

// refCompare is the canonical edge order spelled out field by field, as
// Deps documents it: kind, source position (Entry first), destination
// position, variable, operand positions, level, carried, vector. It shares
// nothing with the graph's packed sort keys, so a keyed sort that drifts
// from the documented order fails against it.
func refCompare(g *Graph, a, b *Dependence) int {
	pos := func(s *ir.Stmt) int {
		if s == g.Entry {
			return -1
		}
		return g.Prog.Index(s)
	}
	carried := func(d *Dependence) int {
		if d.Carried {
			return 1
		}
		return 0
	}
	return cmp.Or(
		cmp.Compare(a.Kind, b.Kind),
		cmp.Compare(pos(a.Src), pos(b.Src)),
		cmp.Compare(pos(a.Dst), pos(b.Dst)),
		strings.Compare(a.Var, b.Var),
		cmp.Compare(a.SrcPos, b.SrcPos),
		cmp.Compare(a.DstPos, b.DstPos),
		cmp.Compare(a.Level, b.Level),
		cmp.Compare(carried(a), carried(b)),
		cmp.Compare(len(a.Vec), len(b.Vec)),
		slices.Compare(a.Vec, b.Vec),
	)
}

// checkCanonical fails unless g.Deps() and every bucket are strictly
// increasing under refCompare: sorted, with no duplicate edges.
func checkCanonical(t *testing.T, what string, g *Graph) {
	t.Helper()
	deps := g.Deps()
	for i := 1; i < len(deps); i++ {
		if a, b := &deps[i-1], &deps[i]; refCompare(g, a, b) >= 0 {
			t.Fatalf("%s: Deps()[%d..%d] out of canonical order or duplicated:\n  %v\n  %v", what, i-1, i, *a, *b)
		}
	}
	for name, buckets := range map[string][][]int32{"from": g.from, "to": g.to} {
		for k, b := range buckets {
			for i := 1; i < len(b); i++ {
				if x, y := g.edges.at(b[i-1]), g.edges.at(b[i]); refCompare(g, x, y) >= 0 {
					t.Fatalf("%s: %s bucket %d out of canonical order at %d:\n  %v\n  %v",
						what, name, k, i, *x, *y)
				}
			}
		}
	}
}

// canonicalSource declares scalars whose names share prefixes (x, x1, xx)
// and a scalar, k, read only in subscripts.
const canonicalSource = `
PROGRAM prefixes
INTEGER i, k, n, x, x1, xx
REAL a(20)
n = 10
k = 2
x = 1
x1 = x + 1
xx = x1 + x
DO i = 1, n
  a(k) = a(k) + x
  x = xx + 1
  xx = x1 * x
  a(i) = a(k) + xx
ENDDO
x1 = x + xx
PRINT x, x1, xx, a(k)
END
`

// TestCanonicalOrder checks the canonical-order property of the edge store
// over the examples, a program of prefix-sharing names and generated
// programs: after Compute, and after every random journaled primitive that
// Update maintains, the edges are strictly increasing under the documented
// order.
func TestCanonicalOrder(t *testing.T) {
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
	progs = append(progs, prog{"prefixes", frontend.MustParse(canonicalSource)})
	for seed := int64(1); seed <= 20; seed++ {
		progs = append(progs, prog{"proggen", proggen.Generate(seed, proggen.Config{})})
	}
	for i, pr := range progs {
		p := pr.p
		log, _ := p.EnsureLog()
		g := Compute(p)
		checkCanonical(t, pr.name+" Compute", g)
		r := rand.New(rand.NewSource(int64(i) + 1))
		for step := 0; step < 25; step++ {
			mutate(r, p)
			g.Update(log.Changes())
			log.Reset()
			checkCanonical(t, pr.name+" Update", g)
		}
	}
}
