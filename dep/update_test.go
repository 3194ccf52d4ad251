package dep

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/frontend"
	"repro/internal/proggen"
	"repro/ir"
)

// mutNames are the scalar names proggen declares; random modifications draw
// replacement operands from this pool.
var mutNames = []string{"n", "m", "p", "x", "y", "z", "w"}

// mutSubVars are the names random subscripts draw from: proggen's loop
// control variables (index terms for the subscript tests) and two integer
// scalars (symbolic terms).
var mutSubVars = []string{"i", "j", "k", "n", "m"}

func assignStmts(p *ir.Program) []*ir.Stmt {
	return stmtsWhere(p, func(s *ir.Stmt) bool { return s.Kind == ir.SAssign })
}

func stmtsOfKind(p *ir.Program, k ir.StmtKind) []*ir.Stmt {
	return stmtsWhere(p, func(s *ir.Stmt) bool { return s.Kind == k })
}

func stmtsWhere(p *ir.Program, keep func(*ir.Stmt) bool) []*ir.Stmt {
	var out []*ir.Stmt
	for _, s := range p.Stmts() {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// arrayWriters are the assignments storing to an array element.
func arrayWriters(p *ir.Program) []*ir.Stmt {
	return stmtsWhere(p, func(s *ir.Stmt) bool { return s.Kind == ir.SAssign && s.Dst.IsArray() })
}

// arrayOperands returns a pointer to every array operand of s (its
// destination included), so a mutation can rewrite one subscript in place.
func arrayOperands(s *ir.Stmt) []*ir.Operand {
	var out []*ir.Operand
	for slot := 1; slot <= 3+len(s.Args); slot++ {
		if op := s.OperandSlot(slot); op != nil && op.IsArray() {
			out = append(out, op)
		}
	}
	return out
}

// loopsAccessingArrays returns the DO heads whose bodies access an array.
func loopsAccessingArrays(p *ir.Program) []*ir.Stmt {
	var out []*ir.Stmt
	stmts := p.Stmts()
	for i, h := range stmts {
		if h.Kind != ir.SDoHead {
			continue
		}
		depth := 0
		for _, s := range stmts[i:] {
			if s.Kind == ir.SDoHead {
				depth++
			} else if s.Kind == ir.SDoEnd {
				depth--
			}
			if len(arrayOperands(s)) > 0 {
				out = append(out, h)
				break
			}
			if depth == 0 {
				break
			}
		}
	}
	return out
}

// randSub draws one affine subscript: a constant, an index variable with a
// small offset or a coefficient of 2 (strong/weak SIV and GCD shapes), or a
// symbolic scalar.
func randSub(r *rand.Rand) ir.LinExpr {
	switch r.Intn(4) {
	case 0:
		return ir.ConstExpr(int64(r.Intn(8) + 1))
	case 1:
		e := ir.VarExpr(mutSubVars[r.Intn(3)])
		e.Const = int64(r.Intn(3) - 1)
		return e
	case 2:
		return ir.LinExpr{Const: int64(r.Intn(2)), Terms: []ir.Term{{Coef: 2, Var: mutSubVars[r.Intn(3)]}}}
	default:
		return ir.VarExpr(mutSubVars[r.Intn(len(mutSubVars))])
	}
}

// randArray draws a reference to one of proggen's arrays (a and b are 1-D,
// c is 2-D) with random subscripts.
func randArray(r *rand.Rand) ir.Operand {
	if r.Intn(3) == 0 {
		return ir.ArrayOp("c", randSub(r), randSub(r))
	}
	return ir.ArrayOp([]string{"a", "b"}[r.Intn(2)], randSub(r))
}

// randLoopBound draws a new DO bound: a constant (known iteration range for
// the Banerjee and SIV distance tests) or a scalar (unknown range).
func randLoopBound(r *rand.Rand) ir.Operand {
	if r.Intn(3) == 0 {
		return ir.VarOp(mutNames[r.Intn(3)])
	}
	return ir.IntOp(int64(r.Intn(6) + 2))
}

// randomAfter picks a move anchor: a random statement, or nil for the front.
func randomAfter(r *rand.Rand, p *ir.Program) *ir.Stmt {
	if j := r.Intn(p.Len() + 1); j > 0 {
		return p.Stmts()[j-1]
	}
	return nil
}

// mutate applies one random engine primitive to p: modify, insert, delete or
// move of a straight-line statement — scalar and array operands, array
// subscripts and array stores alike — an in-kind modify of an IF or DO
// bracket (loop bounds over array-accessing bodies included), each on the
// incremental path. Every mutation goes through the journaling entry points,
// exactly as the generated action executors do.
func mutate(r *rand.Rand, p *ir.Program) {
	as := assignStmts(p)
	if len(as) == 0 {
		return
	}
	s := as[r.Intn(len(as))]
	scalarModify := func() {
		ir.NoteModify(s)
		s.A = ir.VarOp(mutNames[r.Intn(len(mutNames))])
	}
	switch r.Intn(14) {
	case 0: // modify a source operand
		scalarModify()
	case 1: // modify the destination
		ir.NoteModify(s)
		s.Dst = ir.VarOp(mutNames[r.Intn(len(mutNames))])
	case 2: // insert a copy at a random position
		p.InsertAt(r.Intn(p.Len()+1), ir.CloneStmt(s))
	case 3: // delete, keeping enough material for later steps
		if len(as) > 4 {
			p.Delete(s)
		} else {
			scalarModify()
		}
	case 4: // move after a random anchor (nil = front)
		if after := randomAfter(r, p); after != s {
			p.Move(s, after)
		}
	case 5: // IF-head operand modify — in-kind bracket edit, incremental
		if ifs := stmtsOfKind(p, ir.SIf); len(ifs) > 0 {
			c := ifs[r.Intn(len(ifs))]
			ir.NoteModify(c)
			c.A = ir.VarOp(mutNames[r.Intn(len(mutNames))])
		} else {
			scalarModify()
		}
	case 6: // DO-head bound modify — the loop-bounds incremental rule
		if dos := stmtsOfKind(p, ir.SDoHead); len(dos) > 0 {
			c := dos[r.Intn(len(dos))]
			ir.NoteModify(c)
			c.Final = ir.IntOp(int64(r.Intn(6) + 2))
		} else {
			scalarModify()
		}
	case 7: // array source operand
		ir.NoteModify(s)
		if s.Op != ir.OpCopy && r.Intn(2) == 0 {
			s.B = randArray(r)
		} else {
			s.A = randArray(r)
		}
	case 8: // array destination
		ir.NoteModify(s)
		s.Dst = randArray(r)
	case 9: // rewrite one subscript of an array access in place
		acc := stmtsWhere(p, func(t *ir.Stmt) bool { return len(arrayOperands(t)) > 0 })
		if len(acc) == 0 {
			scalarModify()
			return
		}
		t := acc[r.Intn(len(acc))]
		ir.NoteModify(t)
		ops := arrayOperands(t)
		op := ops[r.Intn(len(ops))]
		subs := append([]ir.LinExpr(nil), op.Subs...)
		subs[r.Intn(len(subs))] = randSub(r)
		op.Subs = subs
	case 10: // insert a copy of an array store, or a fresh one
		if ws := arrayWriters(p); len(ws) > 0 && r.Intn(2) == 0 {
			p.InsertAt(r.Intn(p.Len()+1), ir.CloneStmt(ws[r.Intn(len(ws))]))
		} else {
			c := ir.CloneStmt(s)
			c.Dst = randArray(r)
			p.InsertAt(r.Intn(p.Len()+1), c)
		}
	case 11: // move an array store
		if ws := arrayWriters(p); len(ws) > 0 {
			w := ws[r.Intn(len(ws))]
			if after := randomAfter(r, p); after != w {
				p.Move(w, after)
			}
		} else {
			scalarModify()
		}
	case 12: // delete an array store
		if ws := arrayWriters(p); len(ws) > 1 {
			p.Delete(ws[r.Intn(len(ws))])
		} else {
			scalarModify()
		}
	case 13: // bound modify of a loop whose body accesses arrays
		if dos := loopsAccessingArrays(p); len(dos) > 0 {
			c := dos[r.Intn(len(dos))]
			ir.NoteModify(c)
			if r.Intn(2) == 0 {
				c.Init = randLoopBound(r)
			} else {
				c.Final = randLoopBound(r)
			}
		} else {
			scalarModify()
		}
	}
}

// TestUpdateMatchesCompute is the differential property test for incremental
// dependence maintenance: after every primitive mutation of a generated
// program, Graph.Update driven by the change journal must produce a graph
// identical — edges and canonical order both — to a fresh Compute.
func TestUpdateMatchesCompute(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		checkUpdateMatchesCompute(t, seed, proggen.Generate(seed, proggen.Config{}))
	}
}

// checkUpdateMatchesCompute runs TestUpdateMatchesCompute's 40 mutation
// steps on the fresh program p, drawing them from seed.
func checkUpdateMatchesCompute(t *testing.T, seed int64, p *ir.Program) {
	t.Helper()
	log, owned := p.EnsureLog()
	if !owned {
		t.Fatalf("seed %d: fresh program already had a journal", seed)
	}
	g := Compute(p)
	r := rand.New(rand.NewSource(seed * 7919))
	probe := rand.New(rand.NewSource(seed))
	for step := 0; step < 40; step++ {
		mutate(r, p)
		g.Update(log.Changes())
		deleted := deletedStmts(log.Changes())
		log.Reset()
		checkQueryParity(t, seed, step, g, deleted, probe)
		want := Compute(p).String()
		if got := g.String(); got != want {
			t.Fatalf("seed %d step %d: incremental graph diverged\nprogram:\n%s\nincremental:\n%s\nfresh:\n%s",
				seed, step, p, got, want)
		}
	}
}

// TestUpdateStructuralFallback pins the structural-change contract: CFG- or
// loop-shape edits force a full recompute (Update returns false), while
// straight-line edits and in-kind bracket-head modifies — loop bounds
// included — stay on the incremental path (true).
func TestUpdateStructuralFallback(t *testing.T) {
	b := ir.NewBuilder("structural")
	b.Declare("n", false).Declare("x", true)
	b.Copy(ir.VarOp("n"), ir.IntOp(4))
	do := b.Do("i", ir.IntOp(1), ir.VarOp("n"))
	body := b.Assign(ir.VarOp("x"), ir.VarOp("x"), ir.OpAdd, ir.VarOp("x"))
	b.EndDo()
	b.Print(ir.VarOp("x"))
	p := b.P
	log, _ := p.EnsureLog()
	g := Compute(p)

	check := func(what string, wantIncremental bool) {
		t.Helper()
		if got := g.Update(log.Changes()); got != wantIncremental {
			t.Errorf("%s: incremental = %t, want %t", what, got, wantIncremental)
		}
		log.Reset()
		if want := Compute(p).String(); g.String() != want {
			t.Errorf("%s: graph diverged\ngot:\n%s\nwant:\n%s", what, g, want)
		}
	}

	ir.NoteModify(body)
	body.A = ir.VarOp("n")
	check("straight-line modify", true)

	ir.NoteModify(do)
	do.Final = ir.IntOp(6)
	check("DO-head bound modify", true)

	ir.NoteModify(do)
	do.Parallel = true
	check("DOALL marking", true)

	ir.NoteModify(do)
	do.LCV = "j"
	body.Dst = ir.VarOp("x") // keep the body well-formed under the rename
	check("LCV rename", false)

	p.Move(body, do)
	check("moving within a loop", true)

	end := p.Stmts()[p.Len()-2]
	if end.Kind != ir.SDoEnd {
		t.Fatalf("expected SDoEnd, got %v", end.Kind)
	}
	p.Delete(body)
	p.Delete(end)
	p.Delete(do)
	check("deleting the loop brackets", false)
}

// TestUndoRestoresProgram checks the cheap-rollback half of the journal:
// unwinding to a mark restores the program text exactly, no matter what
// sequence of primitives ran in between.
func TestUndoRestoresProgram(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		p := proggen.Generate(seed, proggen.Config{})
		log, _ := p.EnsureLog()
		before := p.String()
		mark := log.Mark()
		r := rand.New(rand.NewSource(seed * 104729))
		for step := 0; step < 25; step++ {
			mutate(r, p)
		}
		log.UndoTo(mark)
		if got := p.String(); got != before {
			t.Fatalf("seed %d: undo did not restore the program\nbefore:\n%s\nafter:\n%s", seed, before, got)
		}
		if log.Len() != mark {
			t.Fatalf("seed %d: journal not truncated to mark: len %d want %d", seed, log.Len(), mark)
		}
	}
}

// deletedStmts returns the statements a change batch deleted.
func deletedStmts(changes []ir.Change) []*ir.Stmt {
	var out []*ir.Stmt
	for _, c := range changes {
		if c.Kind == ir.ChangeDelete {
			out = append(out, c.Stmt)
		}
	}
	return out
}

// queryResult is one probe's answer and the lookup traffic it caused.
type queryResult struct {
	edges []Dependence
	n     int
	found bool
	stats Stats
}

// checkQueryParity probes a maintained graph with Query, Count and Exists
// in all four forms — exact, source-only, destination-only and kind-only —
// over Entry, the statements the last update deleted and a few random
// statements. Every answer and every Stats delta must equal both a fresh
// Compute's and a brute-force scan's over the canonical edge list under
// the documented candidate rules.
func checkQueryParity(t *testing.T, seed int64, step int, g *Graph, deleted []*ir.Stmt, r *rand.Rand) {
	t.Helper()
	p := g.Prog
	fresh := Compute(p)
	canon := fresh.Deps()
	arrays := map[string]bool{}
	for _, s := range p.Stmts() {
		for _, ac := range appendAccesses(nil, s) {
			arrays[ac.op.Name] = true
		}
	}
	probes := append([]*ir.Stmt{g.Entry}, deleted...)
	for k := 0; k < 3 && p.Len() > 0; k++ {
		probes = append(probes, p.At(r.Intn(p.Len())))
	}
	onFresh := func(s *ir.Stmt) *ir.Stmt {
		if s == g.Entry {
			return fresh.Entry
		}
		return s
	}
	patterns := []Vector{nil, {DirEQ}, {DirLT}, {DirAny, DirLT}}
	ask := func(h *Graph, op string, kind Kind, src, dst *ir.Stmt, pat Vector) queryResult {
		before := h.Stats()
		var res queryResult
		switch op {
		case "Query":
			res.edges = h.Query(kind, src, dst, pat)
		case "Count":
			res.n = h.Count(kind, src, dst, pat)
		case "Exists":
			res.found = h.Exists(kind, src, dst, pat)
		}
		res.stats = h.Stats().Sub(before)
		return res
	}
	check := func(kind Kind, src, dst *ir.Stmt) {
		pat := patterns[r.Intn(len(patterns))]
		fs, fd := onFresh(src), onFresh(dst)
		for _, op := range []string{"Query", "Count", "Exists"} {
			got := ask(g, op, kind, src, dst, pat)
			want := ask(fresh, op, kind, fs, fd, pat)
			brute := bruteQuery(fresh, canon, arrays, op, kind, fs, fd, pat)
			where := fmt.Sprintf("seed %d step %d: %s(%v, %s, %s, %v)", seed, step, op, kind, stmtName(g, src), stmtName(g, dst), pat)
			if got.stats != want.stats || got.stats != brute.stats {
				t.Fatalf("%s: lookups %+v, fresh %+v, brute force %+v", where, got.stats, want.stats, brute.stats)
			}
			if got.n != want.n || got.n != brute.n || got.found != want.found || got.found != brute.found {
				t.Fatalf("%s: got %d/%t, fresh %d/%t, brute force %d/%t",
					where, got.n, got.found, want.n, want.found, brute.n, brute.found)
			}
			if !sameEdges(g, got.edges, fresh, want.edges) || !sameEdges(fresh, want.edges, fresh, brute.edges) {
				t.Fatalf("%s: got %v, fresh %v, brute force %v", where, got.edges, want.edges, brute.edges)
			}
		}
	}
	for kind := Flow; kind <= Control; kind++ {
		check(kind, nil, nil)
		for _, s := range probes {
			check(kind, s, nil)
			check(kind, nil, s)
			for _, d := range probes {
				check(kind, s, d)
			}
		}
	}
}

// bruteQuery answers a query by scanning the canonical edge list: the
// candidates are the edges an exact query's (kind, source slot,
// destination slot) bucket, a one-sided query's statement bucket or a
// kind-only query's kind holds, where a statement not in the program
// shares Entry's slot. Exists stops at its first match.
func bruteQuery(g *Graph, canon []Dependence, arrays map[string]bool, op string, kind Kind, src, dst *ir.Stmt, pat Vector) queryResult {
	slot := func(s *ir.Stmt) int {
		if s == g.Entry {
			return 0
		}
		return g.Prog.Index(s) + 1
	}
	var res queryResult
	for _, d := range canon {
		var candidate bool
		switch {
		case src != nil && dst != nil:
			candidate = d.Kind == kind && slot(d.Src) == slot(src) && slot(d.Dst) == slot(dst)
		case src != nil:
			candidate = slot(d.Src) == slot(src)
		case dst != nil:
			candidate = slot(d.Dst) == slot(dst)
		default:
			candidate = d.Kind == kind
		}
		if !candidate {
			continue
		}
		switch {
		case d.Kind == Control:
			res.stats.ControlLookups++
		case arrays[d.Var]:
			res.stats.ArrayLookups++
		default:
			res.stats.ScalarLookups++
		}
		if d.Kind != kind || src != nil && d.Src != src || dst != nil && d.Dst != dst || !d.Vec.Matches(pat) {
			continue
		}
		switch op {
		case "Query":
			res.edges = append(res.edges, d)
		case "Count":
			res.n++
		case "Exists":
			res.found = true
			return res
		}
	}
	return res
}

// sameEdges compares two edge lists field by field, identifying each
// graph's Entry statement with the other's.
func sameEdges(ga *Graph, a []Dependence, gb *Graph, b []Dependence) bool {
	if len(a) != len(b) {
		return false
	}
	same := func(x, y *ir.Stmt) bool { return x == y || x == ga.Entry && y == gb.Entry }
	for i := range a {
		x, y := a[i], b[i]
		if x.Kind != y.Kind || !same(x.Src, y.Src) || !same(x.Dst, y.Dst) || x.Var != y.Var ||
			x.SrcPos != y.SrcPos || x.DstPos != y.DstPos || x.Level != y.Level ||
			x.Carried != y.Carried || x.Vec.String() != y.Vec.String() {
			return false
		}
	}
	return true
}

func stmtName(g *Graph, s *ir.Stmt) string {
	switch {
	case s == nil:
		return "nil"
	case s == g.Entry:
		return "Entry"
	case g.Prog.Index(s) < 0:
		return fmt.Sprintf("deleted S%d", s.ID)
	}
	return fmt.Sprintf("S%d", s.ID)
}

// TestUpdateReclassifiesNewArrayName: the frontend accepts a name used both
// as a scalar and as an array. When an edit adds the first array access to
// a name the graph already holds scalar edges on, lookups must count those
// edges as array edges from then on, as a fresh Compute of the edited
// program does.
func TestUpdateReclassifiesNewArrayName(t *testing.T) {
	p := frontend.MustParse(`
PROGRAM t
INTEGER x
REAL a(10)
a = 1
x = a
PRINT x
END`)
	log, _ := p.EnsureLog()
	g := Compute(p)
	store := &ir.Stmt{Kind: ir.SAssign, Op: ir.OpCopy, Dst: ir.ArrayOp("a", ir.ConstExpr(2)), A: ir.IntOp(5)}
	p.InsertAt(p.Len()-1, store)
	if !g.Update(log.Changes()) {
		t.Fatal("inserting an array store fell back to a full recompute")
	}
	log.Reset()
	if want := Compute(p).String(); g.String() != want {
		t.Fatalf("graph diverged\ngot:\n%s\nwant:\n%s", g, want)
	}
	checkQueryParity(t, 0, 0, g, nil, rand.New(rand.NewSource(1)))
}
