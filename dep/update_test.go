package dep

import (
	"math/rand"
	"testing"

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
// identical — edges and canonical order both — to a fresh Compute. Every
// third seed maintains the graph with sharded edge generation.
func TestUpdateMatchesCompute(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		p := proggen.Generate(seed, proggen.Config{})
		log, owned := p.EnsureLog()
		if !owned {
			t.Fatalf("seed %d: fresh program already had a journal", seed)
		}
		g := Compute(p)
		if seed%3 == 0 {
			g.SetWorkers(2)
		}
		r := rand.New(rand.NewSource(seed * 7919))
		for step := 0; step < 40; step++ {
			mutate(r, p)
			g.Update(log.Changes())
			log.Reset()
			want := Compute(p).String()
			if got := g.String(); got != want {
				t.Fatalf("seed %d step %d: incremental graph diverged\nprogram:\n%s\nincremental:\n%s\nfresh:\n%s",
					seed, step, p, got, want)
			}
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
