package engine

import (
	"slices"

	"repro/dep"
	"repro/internal/gospel"
	"repro/ir"
)

// clauseScratch is one Depend clause's search state, reused across the
// clause's evaluations.
type clauseScratch struct {
	// slots are the clause's elements not yet bound, in clause order: the
	// layout of its candidate tuples. stmtVars and posVars index into it.
	slots             []int
	stmtVars, posVars []int
	// mem[j] is tuple element j's membership qualification, when hasMem[j].
	mem      [][]*ir.Stmt
	hasMem   []bool
	covered  []bool
	anchored []anchoredPred
}

// matchDepend advances through the Depend clauses, enumerating candidate
// bindings for each clause's new elements and checking membership and
// dependence conditions, with backtracking across clauses.
func (o *Optimizer) matchDepend(ctx *context, idx int, yield func(*frame) bool) bool {
	if idx >= len(o.Spec.Depends) {
		return yield(ctx.f)
	}
	dc := o.Spec.Depends[idx]
	sc := &ctx.clauses[idx]
	sc.slots = sc.slots[:0]
	for _, s := range o.plan.dep[idx].elems {
		if !ctx.f.bound(s) {
			sc.slots = append(sc.slots, s)
		}
	}

	// No new bindings: the clause is a pure condition on what is bound.
	if len(sc.slots) == 0 {
		if o.clauseHolds(ctx, dc) == (dc.Quant == gospel.QNo) {
			return true // clause violated: this binding path fails
		}
		return o.matchDepend(ctx, idx+1, yield)
	}

	// The full candidate list is built before any is tested, so the
	// dependence lookups it costs do not depend on where a witness lies.
	base := len(ctx.cands)
	n := o.clauseCandidates(ctx, idx, sc)
	w := len(sc.slots)
	defer func() { ctx.cands = ctx.cands[:base] }()

	switch dc.Quant {
	case gospel.QAny:
		for i := 0; i < n; i++ {
			ctx.bindTuple(sc.slots, ctx.tuple(base, i, w))
			more := !o.clauseHolds(ctx, dc) || o.matchDepend(ctx, idx+1, yield)
			ctx.f.unbind(sc.slots)
			if !more {
				return false
			}
		}
		return true
	case gospel.QNo:
		for i := 0; i < n; i++ {
			ctx.bindTuple(sc.slots, ctx.tuple(base, i, w))
			witness := o.clauseHolds(ctx, dc)
			ctx.f.unbind(sc.slots)
			if witness {
				return true // a witness exists: precondition fails here
			}
		}
		return o.matchDepend(ctx, idx+1, yield)
	case gospel.QAll:
		var set []*ir.Stmt
		for i := 0; i < n; i++ {
			t := ctx.tuple(base, i, w)
			ctx.bindTuple(sc.slots, t)
			if o.clauseHolds(ctx, dc) && t[0].Kind == VStmt {
				set = append(set, t[0].Stmt)
			}
			ctx.f.unbind(sc.slots)
		}
		first := sc.slots[0]
		ctx.f.vals[first] = setVal(set)
		more := o.matchDepend(ctx, idx+1, yield)
		ctx.f.vals[first] = Value{}
		return more
	}
	return true
}

// clauseHolds evaluates the full clause body (sets AND conds) under the
// frame.
func (o *Optimizer) clauseHolds(ctx *context, dc gospel.DependClause) bool {
	if dc.Sets != nil && !ctx.evalBool(ctx.f, dc.Sets) {
		return false
	}
	if dc.Conds != nil && !ctx.evalBool(ctx.f, dc.Conds) {
		return false
	}
	return true
}

// clauseCandidates pushes the candidate tuples for the clause's new
// elements onto the candidate stack and returns their count. Three
// generators exist, mirroring the paper's two membership implementations
// plus the dependence-anchored search of the dep routine:
//
//  1. members-first: draw candidates from the clause's mem() sets;
//  2. deps-first: draw candidates from dependence edges anchored at
//     already-bound statements;
//  3. heuristic: pick per clause whichever generator enumerates fewer
//     candidates (what GENesis was changed to do, Section 4).
//
// Position variables are always bound from dependence edges.
func (o *Optimizer) clauseCandidates(ctx *context, idx int, sc *clauseScratch) int {
	dp := &o.plan.dep[idx]
	// Split new elements into statement/loop variables and position vars.
	sc.stmtVars, sc.posVars = sc.stmtVars[:0], sc.posVars[:0]
	for j, s := range sc.slots {
		if o.plan.declared[s] {
			sc.stmtVars = append(sc.stmtVars, j)
		} else {
			sc.posVars = append(sc.posVars, j)
		}
	}
	o.anchoredPreds(dp, sc)
	o.memSetsFor(ctx, dp, sc)

	strategy := o.Strategy
	if strategy == StrategyHeuristic {
		strategy = o.chooseStrategy(ctx, dp, sc)
	}
	if strategy == StrategyDeps && !depCompleteAll(dp, sc) {
		// Even when forced, the deps-first order is only sound when the
		// dependence edges enumerate every possible candidate.
		strategy = StrategyMembers
	}

	if strategy == StrategyDeps && len(sc.anchored) > 0 {
		return o.depCandidates(ctx, sc)
	}
	n := o.memberCandidates(ctx, sc)
	// Position variables still come from edges: extend each candidate
	// with the positions of matching dependences.
	if len(sc.posVars) > 0 {
		n = o.extendWithPositions(ctx, dp, sc, n)
	}
	return n
}

// anchoredPred is a dependence predicate in the clause generating
// candidates: either one new element with the other endpoint bound, or a
// pair predicate binding two new elements from each edge's endpoints (the
// paper's implementation 2: "consider the dependences of one statement and
// check the corresponding dependent statements for membership").
type anchoredPred struct {
	*depPred
	// newJ is the tuple index of the new element; newIsrc reports that it
	// is the dependence source.
	newJ    int
	newIsrc bool
	// pair predicates bind both endpoints, tuple indices srcJ and dstJ.
	pair       bool
	srcJ, dstJ int
}

// stmtVar returns the tuple index of slot when it is one of the clause's
// new statement/loop elements, or -1.
func (sc *clauseScratch) stmtVar(slot int) int {
	if slot < 0 {
		return -1
	}
	for _, j := range sc.stmtVars {
		if sc.slots[j] == slot {
			return j
		}
	}
	return -1
}

// anchoredPreds collects the clause's dependence predicates that can
// generate candidates for new elements.
func (o *Optimizer) anchoredPreds(dp *depPlan, sc *clauseScratch) {
	sc.anchored = sc.anchored[:0]
	for i := range dp.preds {
		p := &dp.preds[i]
		if len(p.call.Args) < 2 {
			continue
		}
		src, dst := sc.stmtVar(p.src), sc.stmtVar(p.dst)
		switch {
		case src >= 0 && dst >= 0:
			sc.anchored = append(sc.anchored, anchoredPred{depPred: p, pair: true, srcJ: src, dstJ: dst})
		case src >= 0:
			sc.anchored = append(sc.anchored, anchoredPred{depPred: p, newJ: src, newIsrc: true})
		case dst >= 0:
			sc.anchored = append(sc.anchored, anchoredPred{depPred: p, newJ: dst})
		}
	}
}

func depPredName(fn string) (dep.Kind, bool) {
	switch fn {
	case "flow_dep":
		return dep.Flow, true
	case "anti_dep":
		return dep.Anti, true
	case "out_dep":
		return dep.Output, true
	case "ctrl_dep":
		return dep.Control, true
	}
	return 0, false
}

// memSetsFor resolves the clause's mem(X, set) qualifications for new
// elements into concrete statement sets.
func (o *Optimizer) memSetsFor(ctx *context, dp *depPlan, sc *clauseScratch) {
	w := len(sc.slots)
	sc.mem = slices.Grow(sc.mem[:0], w)[:w]
	sc.hasMem = slices.Grow(sc.hasMem[:0], w)[:w]
	clear(sc.mem)
	clear(sc.hasMem)
	for _, q := range dp.mems {
		j := sc.stmtVar(q.slot)
		if j < 0 || sc.hasMem[j] {
			continue // first qualification wins for enumeration
		}
		if set, err := ctx.evalSet(ctx.f, q.set); err == nil {
			sc.mem[j], sc.hasMem[j] = set, true
		}
	}
}

// depComplete reports whether every assignment satisfying conds must
// satisfy some dependence predicate mentioning name — the condition under
// which enumerating dependence edges is a complete candidate generator.
func depComplete(conds gospel.Expr, name string) bool {
	switch e := conds.(type) {
	case gospel.Call:
		if _, ok := depPredName(e.Fn); !ok || len(e.Args) < 2 {
			return false
		}
		if id, ok := e.Args[0].(gospel.Ident); ok && id.Name == name {
			return true
		}
		if id, ok := e.Args[1].(gospel.Ident); ok && id.Name == name {
			return true
		}
		return false
	case gospel.Binary:
		switch e.Op {
		case "and":
			return depComplete(e.L, name) || depComplete(e.R, name)
		case "or":
			return depComplete(e.L, name) && depComplete(e.R, name)
		}
	}
	return false
}

// depCompleteAll reports whether dependence edges are a complete
// generator for every new statement/loop element of the clause.
func depCompleteAll(dp *depPlan, sc *clauseScratch) bool {
	for _, j := range sc.stmtVars {
		if !slices.Contains(dp.complete, sc.slots[j]) {
			return false
		}
	}
	return true
}

// chooseStrategy implements the paper's heuristic: compare the number of
// candidates each enumeration order would examine and take the smaller.
// Dependence-edge enumeration is only eligible when it is complete for
// every element (see depComplete).
func (o *Optimizer) chooseStrategy(ctx *context, dp *depPlan, sc *clauseScratch) Strategy {
	if len(sc.anchored) == 0 || !depCompleteAll(dp, sc) {
		return StrategyMembers
	}
	memCount := 1
	for _, j := range sc.stmtVars {
		if sc.hasMem[j] {
			memCount *= len(sc.mem[j])
		} else {
			memCount *= ctx.prog.Len()
		}
	}
	// Estimate the edge enumeration exactly as depCandidates would run it.
	w := len(sc.slots)
	sc.covered = slices.Grow(sc.covered[:0], w)[:w]
	clear(sc.covered)
	depCount := 0
	for _, ap := range sc.anchored {
		switch {
		case ap.pair:
			depCount += ctx.graph.Count(ap.kind, nil, nil, predQueryDir(ap.call))
			sc.covered[ap.srcJ] = true
			sc.covered[ap.dstJ] = true
		case ap.newIsrc:
			if dv, err := ctx.eval(ctx.f, ap.call.Args[1]); err == nil && dv.Kind == VStmt {
				depCount += ctx.graph.Count(ap.kind, nil, dv.Stmt, predQueryDir(ap.call))
				sc.covered[ap.newJ] = true
			}
		default:
			if sv, err := ctx.eval(ctx.f, ap.call.Args[0]); err == nil && sv.Kind == VStmt {
				depCount += ctx.graph.Count(ap.kind, sv.Stmt, nil, predQueryDir(ap.call))
				sc.covered[ap.newJ] = true
			}
		}
	}
	// Elements not generable from any dependence predicate force the
	// members-first order.
	for _, j := range sc.stmtVars {
		if !sc.covered[j] {
			return StrategyMembers
		}
	}
	if depCount <= memCount {
		return StrategyDeps
	}
	return StrategyMembers
}

// memberCandidates pushes the cartesian product of each new element's
// membership set (or all statements / loops when unqualified).
func (o *Optimizer) memberCandidates(ctx *context, sc *clauseScratch) int {
	base, w := len(ctx.cands), len(sc.slots)
	ctx.push(nil, w)
	n := 1
	for _, j := range sc.stmtVars {
		top := len(ctx.cands)
		if o.plan.kind[sc.slots[j]] == gospel.KStmt {
			stmts := ctx.prog.Stmts()
			if sc.hasMem[j] {
				stmts = sc.mem[j]
			}
			for i := 0; i < n; i++ {
				for _, s := range stmts {
					ctx.push(ctx.tuple(base, i, w), w)[j] = stmtVal(s)
				}
			}
		} else {
			loops := ctx.loopList()
			for i := 0; i < n; i++ {
				for _, l := range loops {
					ctx.push(ctx.tuple(base, i, w), w)[j] = loopVal(l)
				}
			}
		}
		n = ctx.settle(base, top, w)
	}
	return n
}

// predQueryDir returns the direction pattern to enumerate a predicate's
// edges with: carried/independent qualifiers cannot be pushed into the
// query, so they enumerate every edge of the kind and let the clause
// condition filter.
func predQueryDir(c gospel.Call) dep.Vector {
	if c.CarriedBy != "" || c.Independent {
		return nil
	}
	return c.Dir
}

// depCandidates pushes candidates from dependence edges anchored at bound
// statements (the Fig. 7 dep routine's LST search mode), binding the new
// statement and any position variables from each edge. All anchored
// predicates mentioning an element contribute candidates — a disjunctive
// condition (out_dep(Si, Sm) OR anti_dep(Sm, Si)) can witness through any
// of its predicates.
func (o *Optimizer) depCandidates(ctx *context, sc *clauseScratch) int {
	base, w := len(ctx.cands), len(sc.slots)
	// Pair predicates bind two new elements from each edge (the paper's
	// implementation 2).
	if len(sc.stmtVars) == 2 {
		a, b := sc.stmtVars[0], sc.stmtVars[1]
		paired := false
		for _, ap := range sc.anchored {
			if !ap.pair || !(ap.srcJ == a && ap.dstJ == b || ap.srcJ == b && ap.dstJ == a) {
				continue
			}
			paired = true
			ctx.graph.Visit(ap.kind, nil, nil, predQueryDir(ap.call), func(d *dep.Dependence) {
				ctx.cost.DepChecks++
				t := ctx.push(nil, w)
				t[ap.srcJ], t[ap.dstJ] = stmtVal(d.Src), stmtVal(d.Dst)
				setPositions(t, sc.posVars, d)
			})
		}
		if paired {
			return ctx.dedup(base, len(ctx.cands[base:])/w, w)
		}
	}

	ctx.push(nil, w)
	n := 1
	for _, j := range sc.stmtVars {
		top := len(ctx.cands)
		anchored := false
		for _, ap := range sc.anchored {
			anchored = anchored || !ap.pair && ap.newJ == j
		}
		if !anchored {
			// Fall back to all statements for elements without an anchor.
			for i := 0; i < n; i++ {
				for _, s := range ctx.prog.Stmts() {
					ctx.push(ctx.tuple(base, i, w), w)[j] = stmtVal(s)
				}
			}
			n = ctx.settle(base, top, w)
			continue
		}
		for i := 0; i < n; i++ {
			ctx.bindTuple(sc.slots, ctx.tuple(base, i, w))
			for _, ap := range sc.anchored {
				if ap.pair || ap.newJ != j {
					continue
				}
				var src, dst *ir.Stmt
				if ap.newIsrc {
					dv, err := ctx.eval(ctx.f, ap.call.Args[1])
					if err != nil || dv.Kind != VStmt {
						continue
					}
					dst = dv.Stmt
				} else {
					sv, err := ctx.eval(ctx.f, ap.call.Args[0])
					if err != nil || sv.Kind != VStmt {
						continue
					}
					src = sv.Stmt
				}
				ctx.graph.Visit(ap.kind, src, dst, predQueryDir(ap.call), func(d *dep.Dependence) {
					ctx.cost.DepChecks++
					t := ctx.push(ctx.tuple(base, i, w), w)
					if ap.newIsrc {
						t[j] = stmtVal(d.Src)
					} else {
						t[j] = stmtVal(d.Dst)
					}
					setPositions(t, sc.posVars, d)
				})
			}
			ctx.f.unbind(sc.slots)
		}
		n = ctx.settle(base, top, w)
	}
	return ctx.dedup(base, n, w)
}

// extendWithPositions replaces the n member-enumerated candidates on top of
// the stack with their extensions by the position bindings of the
// dependence edges the clause's first predicate matches.
func (o *Optimizer) extendWithPositions(ctx *context, dp *depPlan, sc *clauseScratch, n int) int {
	if len(dp.preds) == 0 {
		return n
	}
	w := len(sc.slots)
	base, top := len(ctx.cands)-n*w, len(ctx.cands)
	pred := dp.preds[0]
	for i := 0; i < n; i++ {
		ctx.bindTuple(sc.slots, ctx.tuple(base, i, w))
		sv, serr := ctx.eval(ctx.f, pred.call.Args[0])
		dv, derr := ctx.eval(ctx.f, pred.call.Args[1])
		ctx.f.unbind(sc.slots)
		if serr != nil || derr != nil || sv.Kind != VStmt || dv.Kind != VStmt {
			ctx.push(ctx.tuple(base, i, w), w)
			continue
		}
		ctx.graph.Visit(pred.kind, sv.Stmt, dv.Stmt, pred.call.Dir, func(d *dep.Dependence) {
			ctx.cost.DepChecks++
			setPositions(ctx.push(ctx.tuple(base, i, w), w), sc.posVars, d)
		})
	}
	return ctx.dedup(base, ctx.settle(base, top, w), w)
}

// setPositions binds position variables from a dependence edge: the
// operand position involved at the use end of the dependence (DstPos for
// flow and output, SrcPos for anti).
func setPositions(t []Value, posVars []int, d *dep.Dependence) {
	pos := d.DstPos
	if d.Kind == dep.Anti {
		pos = d.SrcPos
	}
	for _, j := range posVars {
		t[j] = numVal(int64(pos))
	}
}
