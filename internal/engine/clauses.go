package engine

import (
	"repro/dep"
	"repro/internal/gospel"
	"repro/ir"
)

// matchDepend advances through the Depend clauses, enumerating candidate
// bindings for each clause's new elements and checking membership and
// dependence conditions, with backtracking across clauses.
func (o *Optimizer) matchDepend(ctx *context, idx int, env Env, yield func(Env) bool) bool {
	if idx >= len(o.Spec.Depends) {
		return yield(env)
	}
	dc := o.Spec.Depends[idx]

	var newElems []string
	for _, n := range dc.Elems {
		if _, bound := env[n]; !bound {
			newElems = append(newElems, n)
		}
	}

	// No new bindings: the clause is a pure condition on what is bound.
	if len(newElems) == 0 {
		holds := o.clauseHolds(ctx, dc, env)
		switch dc.Quant {
		case gospel.QNo:
			if holds {
				return true // clause violated: this binding path fails
			}
		default:
			if !holds {
				return true
			}
		}
		return o.matchDepend(ctx, idx+1, env, yield)
	}

	candidates := o.clauseCandidates(ctx, dc, env, newElems)

	switch dc.Quant {
	case gospel.QAny:
		for _, cand := range candidates {
			env2 := withBindings(env, cand)
			if !o.clauseHolds(ctx, dc, env2) {
				continue
			}
			if !o.matchDepend(ctx, idx+1, env2, yield) {
				return false
			}
		}
		return true
	case gospel.QNo:
		for _, cand := range candidates {
			if o.clauseHolds(ctx, dc, withBindings(env, cand)) {
				return true // a witness exists: precondition fails here
			}
		}
		return o.matchDepend(ctx, idx+1, env, yield)
	case gospel.QAll:
		var set []*ir.Stmt
		for _, cand := range candidates {
			env2 := withBindings(env, cand)
			if !o.clauseHolds(ctx, dc, env2) {
				continue
			}
			if v, ok := cand[newElems[0]]; ok && v.Kind == VStmt {
				set = append(set, v.Stmt)
			}
		}
		env2 := env.clone()
		env2[newElems[0]] = setVal(set)
		return o.matchDepend(ctx, idx+1, env2, yield)
	}
	return true
}

// clauseHolds evaluates the full clause body (sets AND conds) under env.
func (o *Optimizer) clauseHolds(ctx *context, dc gospel.DependClause, env Env) bool {
	if dc.Sets != nil && !ctx.evalBool(env, dc.Sets) {
		return false
	}
	if dc.Conds != nil && !ctx.evalBool(env, dc.Conds) {
		return false
	}
	return true
}

// clauseCandidates enumerates candidate bindings for the clause's new
// elements. Three generators exist, mirroring the paper's two membership
// implementations plus the dependence-anchored search of the dep routine:
//
//  1. members-first: draw candidates from the clause's mem() sets;
//  2. deps-first: draw candidates from dependence edges anchored at
//     already-bound statements;
//  3. heuristic: pick per clause whichever generator enumerates fewer
//     candidates (what GENesis was changed to do, Section 4).
//
// Position variables are always bound from dependence edges.
func (o *Optimizer) clauseCandidates(ctx *context, dc gospel.DependClause, env Env, newElems []string) []Env {
	// Split new elements into statement/loop variables and position vars.
	var stmtVars, posVars []string
	for _, n := range newElems {
		if _, declared := o.Spec.DeclKind(n); declared {
			stmtVars = append(stmtVars, n)
		} else {
			posVars = append(posVars, n)
		}
	}

	anchored := o.anchoredPreds(dc, env, stmtVars)
	memSets := o.memSetsFor(ctx, dc, env, stmtVars)

	strategy := o.Strategy
	if strategy == StrategyHeuristic {
		strategy = o.chooseStrategy(ctx, dc, env, stmtVars, anchored, memSets)
	}
	if strategy == StrategyDeps {
		// Even when forced, the deps-first order is only sound when the
		// dependence edges enumerate every possible candidate.
		for _, n := range stmtVars {
			if dc.Conds == nil || !depComplete(dc.Conds, n) {
				strategy = StrategyMembers
				break
			}
		}
	}

	var envs []Env
	if strategy == StrategyDeps && len(anchored) > 0 {
		envs = o.depCandidates(ctx, env, stmtVars, posVars, anchored)
	} else {
		envs = o.memberCandidates(ctx, env, stmtVars, memSets)
		// Position variables still come from edges: extend each candidate
		// with the positions of matching dependences.
		if len(posVars) > 0 {
			envs = o.extendWithPositions(ctx, env, envs, dc, posVars)
		}
	}
	return envs
}

// anchoredPred is a dependence predicate in the clause generating
// candidates: either one new element with the other endpoint bound, or a
// pair predicate binding two new elements from each edge's endpoints (the
// paper's implementation 2: "consider the dependences of one statement and
// check the corresponding dependent statements for membership").
type anchoredPred struct {
	call    gospel.Call
	newName string
	newIsrc bool // the new element is the dependence source
	// pair predicates bind both endpoints.
	pair             bool
	srcName, dstName string
}

// anchoredPreds scans the clause conditions for dependence predicates that
// can generate candidates for new elements.
func (o *Optimizer) anchoredPreds(dc gospel.DependClause, env Env, stmtVars []string) []anchoredPred {
	isNew := map[string]bool{}
	for _, n := range stmtVars {
		isNew[n] = true
	}
	var out []anchoredPred
	var walk func(e gospel.Expr)
	walk = func(e gospel.Expr) {
		switch e := e.(type) {
		case gospel.Binary:
			walk(e.L)
			walk(e.R)
		case gospel.Not:
			walk(e.E)
		case gospel.Call:
			if _, ok := depPredName(e.Fn); !ok || len(e.Args) < 2 {
				return
			}
			srcName, srcIsIdent := identName(e.Args[0])
			dstName, dstIsIdent := identName(e.Args[1])
			srcNew := srcIsIdent && isNew[srcName]
			dstNew := dstIsIdent && isNew[dstName]
			switch {
			case srcNew && dstNew:
				out = append(out, anchoredPred{call: e, pair: true,
					srcName: srcName, dstName: dstName})
			case srcNew:
				out = append(out, anchoredPred{call: e, newName: srcName, newIsrc: true})
			case dstNew:
				out = append(out, anchoredPred{call: e, newName: dstName, newIsrc: false})
			}
		}
	}
	if dc.Conds != nil {
		walk(dc.Conds)
	}
	return out
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

func identName(e gospel.Expr) (string, bool) {
	id, ok := e.(gospel.Ident)
	if !ok {
		return "", false
	}
	return id.Name, true
}

// memSetsFor resolves the clause's mem(X, set) qualifications for new
// elements into concrete statement sets.
func (o *Optimizer) memSetsFor(ctx *context, dc gospel.DependClause, env Env, stmtVars []string) map[string][]*ir.Stmt {
	out := map[string][]*ir.Stmt{}
	if dc.Sets == nil {
		return out
	}
	isNew := map[string]bool{}
	for _, n := range stmtVars {
		isNew[n] = true
	}
	var walk func(e gospel.Expr)
	walk = func(e gospel.Expr) {
		switch e := e.(type) {
		case gospel.Binary:
			walk(e.L)
			walk(e.R)
		case gospel.Call:
			if e.Fn != "mem" || len(e.Args) != 2 {
				return
			}
			name, ok := identName(e.Args[0])
			if !ok || !isNew[name] {
				return
			}
			if _, have := out[name]; have {
				return // first qualification wins for enumeration
			}
			set, err := ctx.evalSet(env, e.Args[1])
			if err == nil {
				out[name] = set
			}
		}
	}
	walk(dc.Sets)
	return out
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

// chooseStrategy implements the paper's heuristic: compare the number of
// candidates each enumeration order would examine and take the smaller.
// Dependence-edge enumeration is only eligible when it is complete for
// every element (see depComplete).
func (o *Optimizer) chooseStrategy(ctx *context, dc gospel.DependClause, env Env, stmtVars []string, anchored []anchoredPred, memSets map[string][]*ir.Stmt) Strategy {
	if len(anchored) == 0 {
		return StrategyMembers
	}
	for _, n := range stmtVars {
		if dc.Conds == nil || !depComplete(dc.Conds, n) {
			return StrategyMembers
		}
	}
	memCount := 1
	for _, n := range stmtVars {
		if set, ok := memSets[n]; ok {
			memCount *= len(set)
		} else {
			memCount *= ctx.prog.Len()
		}
	}
	// Estimate the edge enumeration exactly as depCandidates would run it.
	depCount := 0
	covered := map[string]bool{}
	for _, ap := range anchored {
		kind, _ := depPredName(ap.call.Fn)
		switch {
		case ap.pair:
			depCount += ctx.graph.Count(kind, nil, nil, predQueryDir(ap.call))
			covered[ap.srcName] = true
			covered[ap.dstName] = true
		case ap.newIsrc:
			if dv, err := ctx.eval(env, ap.call.Args[1]); err == nil && dv.Kind == VStmt {
				depCount += ctx.graph.Count(kind, nil, dv.Stmt, predQueryDir(ap.call))
				covered[ap.newName] = true
			}
		default:
			if sv, err := ctx.eval(env, ap.call.Args[0]); err == nil && sv.Kind == VStmt {
				depCount += ctx.graph.Count(kind, sv.Stmt, nil, predQueryDir(ap.call))
				covered[ap.newName] = true
			}
		}
	}
	// Elements not generable from any dependence predicate force the
	// members-first order.
	for _, n := range stmtVars {
		if !covered[n] {
			return StrategyMembers
		}
	}
	if depCount <= memCount {
		return StrategyDeps
	}
	return StrategyMembers
}

// memberCandidates enumerates the cartesian product of each new element's
// membership set (or all statements / loops when unqualified).
func (o *Optimizer) memberCandidates(ctx *context, env Env, stmtVars []string, memSets map[string][]*ir.Stmt) []Env {
	envs := []Env{{}}
	for _, n := range stmtVars {
		kind, _ := o.Spec.DeclKind(n)
		var vals []Value
		if kind == gospel.KStmt {
			if set, ok := memSets[n]; ok {
				for _, s := range set {
					vals = append(vals, stmtVal(s))
				}
			} else {
				for _, s := range ctx.prog.Stmts() {
					vals = append(vals, stmtVal(s))
				}
			}
		} else {
			for _, l := range ir.Loops(ctx.prog) {
				vals = append(vals, loopVal(l))
			}
		}
		var next []Env
		for _, e := range envs {
			for _, v := range vals {
				e2 := e.clone()
				e2[n] = v
				next = append(next, e2)
			}
		}
		envs = next
	}
	return envs
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

// depCandidates enumerates candidates from dependence edges anchored at
// bound statements (the Fig. 7 dep routine's LST search mode), binding the
// new statement and any position variables from each edge. All anchored
// predicates mentioning an element contribute candidates — a disjunctive
// condition (out_dep(Si, Sm) OR anti_dep(Sm, Si)) can witness through any
// of its predicates.
func (o *Optimizer) depCandidates(ctx *context, env Env, stmtVars, posVars []string, anchored []anchoredPred) []Env {
	// Pair predicates bind two new elements from each edge (the paper's
	// implementation 2).
	if len(stmtVars) == 2 {
		var pairs []anchoredPred
		for _, ap := range anchored {
			if ap.pair &&
				((ap.srcName == stmtVars[0] && ap.dstName == stmtVars[1]) ||
					(ap.srcName == stmtVars[1] && ap.dstName == stmtVars[0])) {
				pairs = append(pairs, ap)
			}
		}
		if len(pairs) > 0 {
			var envs []Env
			for _, ap := range pairs {
				kind, _ := depPredName(ap.call.Fn)
				edges := ctx.graph.Query(kind, nil, nil, predQueryDir(ap.call))
				ctx.cost.DepChecks += len(edges)
				for _, edge := range edges {
					e := Env{
						ap.srcName: stmtVal(edge.Src),
						ap.dstName: stmtVal(edge.Dst),
					}
					bindPositions(e, posVars, edge)
					envs = append(envs, e)
				}
			}
			return dedupEnvs(envs)
		}
	}

	byName := map[string][]anchoredPred{}
	for _, ap := range anchored {
		if ap.pair {
			continue
		}
		byName[ap.newName] = append(byName[ap.newName], ap)
	}
	envs := []Env{{}}
	for _, n := range stmtVars {
		aps := byName[n]
		if len(aps) == 0 {
			// Fall back to all statements for elements without an anchor.
			var next []Env
			for _, e := range envs {
				for _, s := range ctx.prog.Stmts() {
					e2 := e.clone()
					e2[n] = stmtVal(s)
					next = append(next, e2)
				}
			}
			envs = next
			continue
		}
		var next []Env
		for _, e := range envs {
			full := withBindings(env, e)
			for _, ap := range aps {
				kind, _ := depPredName(ap.call.Fn)
				var edges []dep.Dependence
				if ap.newIsrc {
					if dv, err := ctx.eval(full, ap.call.Args[1]); err == nil && dv.Kind == VStmt {
						edges = ctx.graph.Query(kind, nil, dv.Stmt, predQueryDir(ap.call))
					}
				} else {
					if sv, err := ctx.eval(full, ap.call.Args[0]); err == nil && sv.Kind == VStmt {
						edges = ctx.graph.Query(kind, sv.Stmt, nil, predQueryDir(ap.call))
					}
				}
				ctx.cost.DepChecks += len(edges)
				for _, edge := range edges {
					e2 := e.clone()
					if ap.newIsrc {
						e2[n] = stmtVal(edge.Src)
					} else {
						e2[n] = stmtVal(edge.Dst)
					}
					bindPositions(e2, posVars, edge)
					next = append(next, e2)
				}
			}
		}
		envs = next
	}
	return dedupEnvs(envs)
}

// extendWithPositions extends member-enumerated candidates with position
// bindings from the dependence edges that the clause's predicates match.
func (o *Optimizer) extendWithPositions(ctx *context, env Env, envs []Env, dc gospel.DependClause, posVars []string) []Env {
	var preds []gospel.Call
	var walk func(e gospel.Expr)
	walk = func(e gospel.Expr) {
		switch e := e.(type) {
		case gospel.Binary:
			walk(e.L)
			walk(e.R)
		case gospel.Not:
			walk(e.E)
		case gospel.Call:
			if _, ok := depPredName(e.Fn); ok {
				preds = append(preds, e)
			}
		}
	}
	if dc.Conds != nil {
		walk(dc.Conds)
	}
	if len(preds) == 0 {
		return envs
	}
	var out []Env
	for _, cand := range envs {
		full := withBindings(env, cand)
		pred := preds[0]
		kind, _ := depPredName(pred.Fn)
		sv, serr := ctx.eval(full, pred.Args[0])
		dv, derr := ctx.eval(full, pred.Args[1])
		if serr != nil || derr != nil || sv.Kind != VStmt || dv.Kind != VStmt {
			out = append(out, cand)
			continue
		}
		edges := ctx.graph.Query(kind, sv.Stmt, dv.Stmt, pred.Dir)
		ctx.cost.DepChecks += len(edges)
		for _, edge := range edges {
			e2 := cand.clone()
			bindPositions(e2, posVars, edge)
			out = append(out, e2)
		}
	}
	return dedupEnvs(out)
}

// bindPositions binds position variables from a dependence edge: the
// operand position involved at the use end of the dependence (DstPos for
// flow and output, SrcPos for anti).
func bindPositions(e Env, posVars []string, edge dep.Dependence) {
	pos := edge.DstPos
	if edge.Kind == dep.Anti {
		pos = edge.SrcPos
	}
	for _, pv := range posVars {
		e[pv] = numVal(int64(pos))
	}
}

func dedupEnvs(envs []Env) []Env {
	seen := map[string]bool{}
	var out []Env
	for _, e := range envs {
		sig := envSignature(e)
		if !seen[sig] {
			seen[sig] = true
			out = append(out, e)
		}
	}
	return out
}
