package dep

import (
	"cmp"
	"slices"

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
// (dataflow.Workspace.AnalyzeNames) therefore reproduces exactly the
// scalar edges a full recomputation would build for them. Third, an array
// edge is the result of one pair test (testPair), which reads only the two
// accesses, their common loops and their relative order. A non-structural
// edit changes none of these for a pair neither of whose statements it
// edited, so only array edges with an edited endpoint are dropped and
// re-tested.
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
//
// The work is proportional to the edit, not to the graph. The dropped edges
// are found through the per-name scalar index (dirty names) and the edited
// statements' buckets (array and control edges, and every edge of a
// deleted statement); only the buckets they sat in are filtered. The
// survivors keep their canonical relative order: positions shift, but
// every edge at an inserted, deleted or moved statement is dropped, and
// the rest keep the order of their endpoints. The re-derived edges are
// sorted among themselves and merged into the buckets they belong to.
func (g *Graph) Update(changes []ir.Change) bool {
	if len(changes) == 0 {
		return true
	}
	p := g.Prog
	u := &g.up
	u.reset(p.Len()+1, g.edges.len())
	shifted := false
	for _, c := range changes {
		if structuralChange(c) {
			g.stats.StructuralRebuilds++
			g.recompute()
			return false
		}
		u.edited[c.Stmt] = true
		switch c.Kind {
		case ir.ChangeModify:
			addScalarNames(u.dirty, c.Before)
			addScalarNames(u.dirty, c.Stmt)
			if c.Stmt.Kind == ir.SDoHead {
				g.addLoopBody(u.dirty, u.edited, c.Stmt)
			}
		case ir.ChangeInsert, ir.ChangeMove, ir.ChangeDelete:
			addScalarNames(u.dirty, c.Stmt)
			u.touched[c.Stmt] = true
			shifted = true
		}
	}

	// Drop every edge the edits can have invalidated: scalar edges on a
	// dirty name, array edges with an edited endpoint, control edges onto a
	// touched statement, and every edge of a statement no longer in the
	// program (remap drops those while re-slotting the buckets).
	if shifted {
		g.remap()
	}
	for name := range u.dirty {
		if ids, ok := g.scalars[name]; ok {
			for _, id := range ids {
				g.kill(id)
			}
			g.scalars[name] = ids[:0]
		}
	}
	for s := range u.edited {
		k := g.liveSlot(s)
		if k < 0 {
			continue
		}
		for _, id := range g.from[k] {
			if g.class[id] == arrayEdge {
				g.kill(id)
			}
		}
		for _, id := range g.to[k] {
			if c := g.class[id]; c == arrayEdge || c == controlEdge && u.touched[s] {
				g.kill(id)
			}
		}
	}
	g.sweep()
	g.flow = nil // stale; Dataflow() recomputes on demand

	// Rebuild the dirty region: scalar dependences of the dirty names, array
	// dependences with an edited endpoint, and control dependences onto
	// relocated or inserted statements.
	if shifted {
		g.lt = buildLoopTable(p, g.lt)
	}
	if len(u.dirty) > 0 {
		g.scalarDepsFrom(u.flow.AnalyzeNames(p, u.dirty), g.lt)
	}
	g.arrayDeps(g.lt, u.edited)
	for s := range u.touched {
		i := p.Index(s)
		if i < 0 {
			continue // deleted (or inserted then deleted)
		}
		for _, head := range g.lt.ctrlHeads[i] {
			g.add(Dependence{Kind: Control, Src: head, Dst: s})
		}
	}
	g.splice()
	g.kindsOK = [numKinds]bool{}
	g.stats.IncrementalUpdates++
	return true
}

// updateScratch is the working state of one Update, kept on the graph so
// its maps and slices are reused across calls.
type updateScratch struct {
	dirty   map[string]bool   // scalar names to re-derive
	edited  map[*ir.Stmt]bool // statements whose array edges are re-tested
	touched map[*ir.Stmt]bool // inserted, moved or deleted statements
	swept   map[string]bool   // names whose index lists hold dropped IDs
	dead    []bool            // by edge ID: dropped by this update
	killed  []int32           // the dropped IDs
	marks   []uint8           // by slot: fromMark | toMark once queued
	sweep   []int32           // slots whose buckets hold dropped IDs
	keyed   []keyed           // sortPending's order
	fresh   []keyed           // the edges splice inserted
	merged  []int32           // merge output buffer
	count   []int             // commit's per-slot edge counts
	array   arrayScratch      // arrayDeps' access groups
	from    [][]int32         // remap's spare bucket tables
	to      [][]int32
	flow    dataflow.Workspace // storage for the build's and the dirty names' analyses
}

const (
	fromMark uint8 = 1 << iota
	toMark
)

// reset readies the scratch for a program of slots statement slots and an
// edge arena of edges IDs.
func (u *updateScratch) reset(slots, edges int) {
	if u.dirty == nil {
		u.dirty = make(map[string]bool)
		u.edited = make(map[*ir.Stmt]bool)
		u.touched = make(map[*ir.Stmt]bool)
		u.swept = make(map[string]bool)
	}
	clear(u.dirty)
	clear(u.edited)
	clear(u.touched)
	clear(u.swept)
	u.dead = slices.Grow(u.dead[:0], edges)[:edges]
	u.marks = slices.Grow(u.marks[:0], slots)[:slots]
	clear(u.marks)
	u.killed, u.sweep = u.killed[:0], u.sweep[:0]
}

// kill drops edge id: it is marked dead and the buckets and name list
// holding it are queued for sweep.
func (g *Graph) kill(id int32) {
	u := &g.up
	if u.dead[id] {
		return
	}
	u.dead[id] = true
	u.killed = append(u.killed, id)
	d := g.edges.at(id)
	g.queueSweep(g.liveSlot(d.Src), fromMark)
	g.queueSweep(g.liveSlot(d.Dst), toMark)
	if g.class[id] == scalarEdge && !u.dirty[d.Var] {
		u.swept[d.Var] = true
	}
}

func (g *Graph) queueSweep(slot int, mark uint8) {
	u := &g.up
	if slot < 0 || u.marks[slot]&mark != 0 {
		return
	}
	if u.marks[slot] == 0 {
		u.sweep = append(u.sweep, int32(slot))
	}
	u.marks[slot] |= mark
}

// sweep removes the killed IDs from the queued buckets and name lists and
// recycles them.
func (g *Graph) sweep() {
	u := &g.up
	live := func(ids []int32) []int32 {
		out := ids[:0]
		for _, id := range ids {
			if !u.dead[id] {
				out = append(out, id)
			}
		}
		return out
	}
	for _, k := range u.sweep {
		if u.marks[k]&fromMark != 0 {
			g.from[k] = live(g.from[k])
		}
		if u.marks[k]&toMark != 0 {
			g.to[k] = live(g.to[k])
		}
	}
	for name := range u.swept {
		g.scalars[name] = live(g.scalars[name])
	}
	for _, id := range u.killed {
		u.dead[id] = false
		*g.edges.at(id) = Dependence{}
	}
	g.free = append(g.free, u.killed...)
}

// remap re-slots the buckets after statements were inserted, deleted or
// moved: each bucket follows its statement to its new position, an
// inserted statement starts with empty buckets, and every edge of a
// deleted statement is killed.
func (g *Graph) remap() {
	p := g.Prog
	n := p.Len() + 1
	from := slices.Grow(g.up.from[:0], n)[:n]
	to := slices.Grow(g.up.to[:0], n)[:n]
	clear(from)
	clear(to)
	from[0], to[0] = g.from[0], g.to[0]
	for k, s := range g.stmts {
		if i := p.Index(s); i >= 0 {
			from[i+1], to[i+1] = g.from[k+1], g.to[k+1]
			continue
		}
		for _, id := range g.from[k+1] {
			g.kill(id)
		}
		for _, id := range g.to[k+1] {
			g.kill(id)
		}
	}
	// The old tables become the spares. Clearing them leaves every bucket
	// referenced from exactly one table entry.
	g.up.from, g.up.to = g.from[:cap(g.from)], g.to[:cap(g.to)]
	clear(g.up.from)
	clear(g.up.to)
	g.from, g.to = from, to
	g.stmts = append(g.stmts[:0], p.Stmts()...)
}

// splice lays the pending edges of an update into the buckets: each new
// edge not already in the graph gets an ID, and the new IDs merge into
// their source buckets, then into their destination buckets.
func (g *Graph) splice() {
	fresh := g.up.fresh[:0]
	order := g.sortPending(g.srcKey)
	for i, k := range order {
		d := g.pending.at(k.id)
		if i > 0 && repeats(&g.pending, order[i-1], k) || g.holds(g.from[k.key>>33], k.key, d) {
			continue
		}
		fresh = append(fresh, keyed{k.key, g.insert(*d)})
	}
	g.pending.reset()
	g.mergeRuns(g.from, fresh, g.srcKey)
	for i := range fresh {
		fresh[i].key = g.dstKey(g.edges.at(fresh[i].id))
	}
	sortKeyed(fresh, &g.edges)
	g.mergeRuns(g.to, fresh, g.dstKey)
	g.up.fresh = fresh
}

// holds reports whether the canonically ordered source bucket b already
// holds d, whose srcKey is key.
func (g *Graph) holds(b []int32, key uint64, d *Dependence) bool {
	_, found := slices.BinarySearchFunc(b, d, func(id int32, d *Dependence) int {
		e := g.edges.at(id)
		if c := cmp.Compare(g.srcKey(e), key); c != 0 {
			return c
		}
		return compareRest(e, d)
	})
	return found
}

// mergeRuns merges the edges ks — sorted by key, which groups them by the
// bucket in its top bits and orders each group canonically — into their
// buckets.
func (g *Graph) mergeRuns(buckets [][]int32, ks []keyed, key func(*Dependence) uint64) {
	for lo := 0; lo < len(ks); {
		slot := ks[lo].key >> 33
		hi := lo + 1
		for hi < len(ks) && ks[hi].key>>33 == slot {
			hi++
		}
		b, out := buckets[slot], g.up.merged[:0]
		i := 0
		for _, k := range ks[lo:hi] {
			d := g.edges.at(k.id)
			for i < len(b) {
				e := g.edges.at(b[i])
				if c := cmp.Compare(key(e), k.key); c > 0 || c == 0 && compareRest(e, d) > 0 {
					break
				}
				out = append(out, b[i])
				i++
			}
			out = append(out, k.id)
		}
		out = append(out, b[i:]...)
		buckets[slot] = append(b[:0], out...)
		g.up.merged = out
		lo = hi
	}
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
