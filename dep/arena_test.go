package dep

import (
	"os"
	"reflect"
	"slices"
	"testing"

	"repro/internal/frontend"
	"repro/internal/proggen"
	"repro/ir"
)

// hompackGraph computes the dependence graph of examples/programs/
// hompack-ish.mf, which spans dozens of arena chunks.
func hompackGraph(t testing.TB) *Graph {
	t.Helper()
	raw, err := os.ReadFile("../examples/programs/hompack-ish.mf")
	if err != nil {
		t.Fatal(err)
	}
	return Compute(frontend.MustParse(string(raw)))
}

// fillArena pushes one edge per statement of stmts; its Src and SrcPos
// identify it.
func fillArena(t *testing.T, a *edgeArena, stmts []ir.Stmt) {
	t.Helper()
	for i := range stmts {
		if id := a.push(Dependence{Src: &stmts[i], SrcPos: i}); id != int32(i) {
			t.Fatalf("push %d returned ID %d", i, id)
		}
	}
}

// TestEdgeArenaAddressesStable: growing the arena by whole chunks neither
// moves nor changes an edge already in it, so IDs and *Dependence pointers
// taken before the growth stay valid.
func TestEdgeArenaAddressesStable(t *testing.T) {
	var a edgeArena
	stmts := make([]ir.Stmt, 3*edgeChunk+5)
	ptrs := make([]*Dependence, len(stmts))
	for i := range stmts {
		ptrs[i] = a.at(a.push(Dependence{Src: &stmts[i], SrcPos: i}))
	}
	if a.len() != len(stmts) || len(a.chunks) != 4 {
		t.Fatalf("len %d in %d chunks, want %d in 4", a.len(), len(a.chunks), len(stmts))
	}
	for i := range stmts {
		d := a.at(int32(i))
		if d != ptrs[i] {
			t.Fatalf("edge %d moved from %p to %p", i, ptrs[i], d)
		}
		if d.Src != &stmts[i] || d.SrcPos != i {
			t.Fatalf("edge %d changed: %+v", i, *d)
		}
	}
}

// TestEdgeArenaResetKeepsChunks: reset keeps every chunk for reuse and
// zeroes every entry that was in use, so the arena keeps no statement
// reachable; pushing again fills the same chunks.
func TestEdgeArenaResetKeepsChunks(t *testing.T) {
	var a edgeArena
	stmts := make([]ir.Stmt, 2*edgeChunk+3)
	fillArena(t, &a, stmts)
	chunks := slices.Clone(a.chunks)
	a.reset()
	if a.len() != 0 || !slices.Equal(a.chunks, chunks) {
		t.Fatalf("reset: len %d, chunks kept %t", a.len(), slices.Equal(a.chunks, chunks))
	}
	for c, chunk := range a.chunks {
		for i := range chunk {
			if !reflect.ValueOf(chunk[i]).IsZero() {
				t.Fatalf("chunk %d entry %d survived reset: %+v", c, i, chunk[i])
			}
		}
	}
	fillArena(t, &a, stmts)
	if !slices.Equal(a.chunks, chunks) || a.at(0) != &chunks[0][0] {
		t.Fatal("refilling a reset arena allocated new chunks")
	}
}

// TestEdgeArenaFreeListAcrossChunks: the IDs an update drops on either
// side of a chunk boundary are zeroed and recycled, and the edges inserted
// next take exactly those IDs, without growing the arena or moving other
// edges.
func TestEdgeArenaFreeListAcrossChunks(t *testing.T) {
	g := hompackGraph(t)
	if len(g.edges.chunks) < 3 {
		t.Fatalf("hompack-ish spans %d chunks, want several", len(g.edges.chunks))
	}
	var ids []int32
	for _, id := range []int32{edgeChunk - 1, edgeChunk, 2*edgeChunk - 1, 2 * edgeChunk} {
		if !slices.Contains(g.free, id) {
			ids = append(ids, id)
		}
	}
	n, chunks := g.edges.len(), len(g.edges.chunks)
	kept := g.edges.at(edgeChunk + 1)
	keptEdge := *kept
	var dropped []Dependence
	g.up.reset(g.Prog.Len()+1, n)
	for _, id := range ids {
		dropped = append(dropped, *g.edges.at(id))
		g.kill(id)
	}
	g.sweep()
	for _, id := range ids {
		if !slices.Contains(g.free, id) {
			t.Fatalf("dropped ID %d is not on the free list %v", id, g.free)
		}
		if d := g.edges.at(id); !reflect.ValueOf(*d).IsZero() {
			t.Fatalf("dropped ID %d still holds %v", id, *d)
		}
	}
	reused := map[int32]bool{}
	for _, d := range dropped {
		id := g.insert(d)
		if !slices.Contains(ids, id) || reused[id] {
			t.Fatalf("insert returned ID %d, want an unused one of the dropped %v", id, ids)
		}
		reused[id] = true
		if got := g.edges.at(id); !reflect.DeepEqual(*got, d) {
			t.Fatalf("ID %d holds %v, want %v", id, *got, d)
		}
	}
	if g.edges.len() != n || len(g.edges.chunks) != chunks {
		t.Fatalf("arena grew: %d edges in %d chunks, was %d in %d", g.edges.len(), len(g.edges.chunks), n, chunks)
	}
	if g.edges.at(edgeChunk+1) != kept || !reflect.DeepEqual(*kept, keptEdge) {
		t.Fatal("recycling IDs moved or changed a kept edge")
	}
}

// TestUpdateMatchesComputeAcrossChunks runs the incremental-maintenance
// differential on generated programs whose graphs span several arena
// chunks, so the kills, recycled IDs and splices cross chunk boundaries.
// TestCanonicalOrder covers such a graph through hompack-ish.
func TestUpdateMatchesComputeAcrossChunks(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		p := proggen.Generate(seed, proggen.Config{MaxStmts: 100})
		if c := len(Compute(p).edges.chunks); c < 3 {
			t.Fatalf("seed %d: graph spans %d chunks, want several", seed, c)
		}
		checkUpdateMatchesCompute(t, seed, p)
	}
}
