package dep

import (
	"repro/internal/dataflow"
	"repro/ir"
)

// Update incrementally maintains the graph after the program edits recorded
// in changes (an ir.ChangeLog slice). It re-derives only the dependences the
// edits can have changed, keeping every other edge, and falls back to a
// full recomputation when an edit changes the CFG shape (any change
// involving a DO/IF bracket statement, or a wholesale program replacement).
// The result is identical — edge order included — to a fresh Compute of the
// current program. It returns false when the fallback path ran.
//
// The incremental path rests on three observations. First, the CFG is
// determined solely by statement kinds and bracket positions, so edits to
// straight-line statements (assign, read, print) leave it intact up to index
// renumbering. Second, reaching-definition gen/kill sets only interact
// within a single scalar name: a statement neither generates nor kills
// facts about names it does not access, so its insertion, removal, movement
// or rewriting cannot change the dataflow facts — and hence the scalar
// dependences — of any other name. Re-analyzing the union of scalar names
// accessed by the old and new images of every edited statement
// (dataflow.AnalyzeNames) therefore reproduces exactly the scalar edges a
// full recomputation would build for them. Third, an array edge is the
// result of one pair test (testPair), which reads only the two accesses,
// their common loops and their relative order. A non-structural edit
// changes none of these for a pair neither of whose statements it edited,
// so only array edges with an edited endpoint are dropped and re-tested.
//
// Per-primitive dirty rules (scalar edges by name, array edges by edited
// statement, control edges by touched statement):
//
//	Add(s), Copy → s:  scalar names of s dirty; s edited; control edges
//	                   onto s rebuilt
//	Delete(s):         scalar names of s dirty; edges incident to s dropped
//	Move(s):           scalar names of s dirty; s edited; control edges
//	                   onto s rebuilt
//	Modify(s):         scalar names of the old AND new images of s dirty;
//	                   s edited
//	Modify(DO head), same LCV:  additionally every scalar name accessed in
//	                   the loop body dirty and every body statement edited
//	                   — bound values shape the direction vectors of
//	                   carried dependences, and those edges run only
//	                   between body statements
//	Modify(IF head), same kind: s only — the control region and its edges
//	                   are unchanged
//	kind change / LCV rename / insert, delete or move of any bracket
//	statement / CopyFrom:  full recomputation
func (g *Graph) Update(changes []ir.Change) bool {
	if len(changes) == 0 {
		return true
	}
	p := g.Prog
	dirty := make(map[string]bool)
	edited := make(map[*ir.Stmt]bool)
	touched := make(map[*ir.Stmt]bool)
	moved := false
	for _, c := range changes {
		if structuralChange(c) {
			g.stats.StructuralRebuilds++
			g.recompute()
			return false
		}
		edited[c.Stmt] = true
		switch c.Kind {
		case ir.ChangeModify:
			addScalarNames(dirty, c.Before)
			addScalarNames(dirty, c.Stmt)
			if c.Stmt.Kind == ir.SDoHead {
				g.addLoopBody(dirty, edited, c.Stmt)
			}
		case ir.ChangeInsert, ir.ChangeMove, ir.ChangeDelete:
			addScalarNames(dirty, c.Stmt)
			touched[c.Stmt] = true
			if c.Kind == ir.ChangeMove {
				moved = true
			}
		}
	}

	// Drop every edge the edits can have invalidated: scalar edges on a
	// dirty name, array edges with an edited endpoint, control edges onto a
	// touched statement, and any edge with an endpoint no longer in the
	// program.
	kept := g.Deps[:0]
	for _, d := range g.Deps {
		switch {
		case d.Kind == Control:
			if touched[d.Dst] || p.Index(d.Src) < 0 || p.Index(d.Dst) < 0 {
				continue
			}
		case g.arrays[d.Var]:
			if edited[d.Src] || edited[d.Dst] || p.Index(d.Src) < 0 || p.Index(d.Dst) < 0 {
				continue
			}
		default:
			if dirty[d.Var] {
				continue
			}
			if (d.Src != g.Entry && p.Index(d.Src) < 0) || p.Index(d.Dst) < 0 {
				continue
			}
		}
		kept = append(kept, d)
	}
	g.Deps = kept
	// The kept edges are a subsequence of the previous canonical order.
	// Inserts and deletes shift positions but keep the survivors' relative
	// order, so the prefix stays sorted and normalize can merge instead of
	// re-sorting — unless a move reordered statements.
	sortedPrefix := len(kept)
	if moved {
		sortedPrefix = 0
	}
	g.resetMaps()
	for i, d := range g.Deps {
		g.link(i, d)
	}
	g.flow = nil // full dataflow is stale; Dataflow() recomputes on demand

	// Rebuild the dirty region: scalar dependences of the dirty names, array
	// dependences with an edited endpoint, and control dependences onto
	// relocated or inserted statements.
	lt := buildLoopTable(p)
	if len(dirty) > 0 {
		g.scalarDepsFrom(dataflow.AnalyzeNames(p, dirty), lt)
	}
	g.arrayDeps(lt, edited)
	for s := range touched {
		i := p.Index(s)
		if i < 0 {
			continue // deleted (or inserted then deleted)
		}
		for _, head := range lt.ctrlHeads[i] {
			g.add(Dependence{Kind: Control, Src: head, Dst: s})
		}
	}
	g.normalizeFrom(sortedPrefix)
	g.stats.IncrementalUpdates++
	return true
}

// structuralChange reports whether c can alter the CFG shape or loop
// structure, forcing a full recomputation. Inserting, deleting or moving any
// bracket statement changes loop membership or control regions; a modify is
// structural only when it changes the statement kind or renames a DO loop's
// control variable — an LCV rename flips the subscript-test classification
// (index variable vs symbol) for array accesses whose array name the dirty
// set cannot see. In-kind modifies of bracket heads (loop bounds, IF
// operands, DOALL marking) stay incremental; Update dirties the loop body
// for DO heads to cover bound-sensitive direction vectors.
func structuralChange(c ir.Change) bool {
	switch c.Kind {
	case ir.ChangeReset:
		return true
	case ir.ChangeModify:
		if c.Before == nil || c.Before.Kind != c.Stmt.Kind {
			return true
		}
		return c.Stmt.Kind == ir.SDoHead && c.Before.LCV != c.Stmt.LCV
	default:
		return c.Stmt != nil && isBracket(c.Stmt.Kind)
	}
}

// addLoopBody marks every statement of head's loop (head and matching end
// included) edited and dirties the scalar names they access. Used for
// DO-head bound modifies: any dependence whose direction vector involves the
// loop runs between two statements of the body, so re-deriving the body's
// scalar names and re-testing its array accesses rebuilds every edge the
// new bounds could reshape.
func (g *Graph) addLoopBody(names map[string]bool, edited map[*ir.Stmt]bool, head *ir.Stmt) {
	i := g.Prog.Index(head)
	if i < 0 {
		return // deleted by a later change in the batch
	}
	depth := 0
	for _, s := range g.Prog.Stmts()[i:] {
		switch s.Kind {
		case ir.SDoHead:
			depth++
		case ir.SDoEnd:
			depth--
		}
		addScalarNames(names, s)
		edited[s] = true
		if depth == 0 {
			return
		}
	}
}

func isBracket(k ir.StmtKind) bool {
	switch k {
	case ir.SDoHead, ir.SDoEnd, ir.SIf, ir.SElse, ir.SEndIf:
		return true
	}
	return false
}

// addScalarNames adds every scalar name statement s accesses — its scalar
// definition target and every scalar read, subscript variables included —
// to the set. Array names are left out: array edges are maintained per
// edited statement, and array accesses neither generate nor kill scalar
// dataflow facts.
func addScalarNames(set map[string]bool, s *ir.Stmt) {
	if s == nil {
		return
	}
	addSubVars := func(subs []ir.LinExpr) {
		for _, sub := range subs {
			for _, v := range sub.Vars() {
				set[v] = true
			}
		}
	}
	if d, ok := s.Defs(); ok {
		if d.IsArray() {
			addSubVars(d.Subs)
		} else {
			set[d.Name] = true
		}
	}
	for _, u := range s.Uses() {
		switch u.Kind {
		case ir.Var:
			set[u.Name] = true
		case ir.ArrayRef:
			addSubVars(u.Subs)
		}
	}
}
