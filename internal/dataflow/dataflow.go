package dataflow

import (
	"sync"

	"repro/internal/cfg"
	"repro/ir"
)

// Def is one definition site: statement index def-ining a location. Array
// element stores are may-definitions: they generate but do not kill (another
// element may hold the old value), and only a scalar definition of the same
// name would kill them (which cannot happen in a well-typed program).
type Def struct {
	StmtIdx int
	Name    string
	IsArray bool
}

// Use is one use site: the operand slot of a statement reading a location.
// Pos is the paper's operand position (see ir.Stmt.OperandSlot); subscript
// reads of array destinations carry Pos == 0.
type Use struct {
	StmtIdx int
	Name    string
	IsArray bool
	Pos     int
}

// Analysis bundles the dataflow results for one snapshot of a program.
// Facts suffixed F are computed on the forward-only (back-edge-free) graph
// and describe a single loop iteration; the dependence analyzer subtracts
// them from the full-graph facts to find loop-carried dependences.
type Analysis struct {
	Graph  *cfg.Graph // full CFG
	FGraph *cfg.Graph // forward-only CFG
	Defs   []Def
	Uses   []Use

	defsAt map[int][]int
	usesAt map[int][]int

	// ReachIn[i] = definitions reaching the entry of statement i (full CFG).
	ReachIn []BitSet
	// ReachInF is ReachIn on the forward-only CFG.
	ReachInF []BitSet
	// UseReachIn[i] = upward-exposed uses reaching statement i: uses u with
	// a path u → i containing no definition of u's location (full CFG);
	// drives anti-dependence queries.
	UseReachIn []BitSet
	// UseReachInF is UseReachIn on the forward-only CFG.
	UseReachInF []BitSet
	// ExposedUses[i] = uses u reachable from i on a forward-only path that
	// contains no definition of u's location before the use.
	ExposedUses []BitSet
	// ExposedDefs[i] = definitions d reachable from i on a forward-only
	// path with no other definition of d's location before d.
	ExposedDefs []BitSet
	// UpwardExposed = uses reachable from program entry on some path (back
	// edges included) with no definition of their location in between: the
	// uses the implicit zero-initialization at program entry can reach.
	UpwardExposed BitSet

	// liveOut[i] = names live at exit of statement i. Nothing on the
	// dependence path reads liveness, so it is computed on the first
	// LiveOutOf call rather than by Analyze; the Once makes that safe when
	// sharded edge generation shares one analysis across goroutines.
	liveOnce sync.Once
	liveOut  []map[string]bool
}

// Analyze runs the reaching-definition and exposed-use analyses on a
// snapshot of p. Liveness is not part of it: LiveOutOf computes it on first
// use.
func Analyze(p *ir.Program) *Analysis { return analyze(p, nil) }

// AnalyzeNames runs the same analyses restricted to the definitions and uses
// of the given location names. Because gen/kill sets only interact within a
// single name (a definition of x kills only facts about x), the restricted
// facts for those names are identical to the corresponding slice of a full
// Analyze — at a fraction of the cost. The incremental dependence updater
// uses this to re-derive only the dependences of names an edit touched.
// AnalyzeNames never computes liveness; LiveOutOf on a name-filtered
// analysis would see only the filtered names and should not be consulted.
func AnalyzeNames(p *ir.Program, names map[string]bool) *Analysis {
	return analyze(p, names)
}

func analyze(p *ir.Program, names map[string]bool) *Analysis {
	a := &Analysis{
		Graph:  cfg.Build(p),
		FGraph: cfg.BuildForward(p),
		defsAt: make(map[int][]int),
		usesAt: make(map[int][]int),
	}
	a.collect(p, names)

	dGen, dKill := a.defGenKill(p)
	uGen, uKill := a.useGenKill(p)

	a.ReachIn = solveForward(a.Graph, dGen, dKill, len(a.Defs))
	a.ReachInF = solveForward(a.FGraph, dGen, dKill, len(a.Defs))
	a.UseReachIn = solveForward(a.Graph, uGen, uKill, len(a.Uses))
	a.UseReachInF = solveForward(a.FGraph, uGen, uKill, len(a.Uses))
	a.ExposedUses = solveBackward(a.FGraph, uGen, uKill, len(a.Uses))
	a.ExposedDefs = solveBackward(a.FGraph, dGen, dKill, len(a.Defs))
	if p.Len() > 0 {
		full := solveBackward(a.Graph, uGen, uKill, len(a.Uses))
		a.UpwardExposed = full[0]
	} else {
		a.UpwardExposed = NewBitSet(0)
	}
	return a
}

func (a *Analysis) collect(p *ir.Program, names map[string]bool) {
	keep := func(name string) bool { return names == nil || names[name] }
	for i := 0; i < p.Len(); i++ {
		s := p.At(i)
		if d, ok := s.Defs(); ok && keep(d.Name) {
			a.defsAt[i] = append(a.defsAt[i], len(a.Defs))
			a.Defs = append(a.Defs, Def{StmtIdx: i, Name: d.Name, IsArray: d.IsArray()})
		}
		addUse := func(name string, isArray bool, pos int) {
			if !keep(name) {
				return
			}
			a.usesAt[i] = append(a.usesAt[i], len(a.Uses))
			a.Uses = append(a.Uses, Use{StmtIdx: i, Name: name, IsArray: isArray, Pos: pos})
		}
		record := func(op ir.Operand, pos int) {
			switch op.Kind {
			case ir.Var:
				addUse(op.Name, false, pos)
			case ir.ArrayRef:
				addUse(op.Name, true, pos)
				for _, sub := range op.Subs {
					for _, v := range sub.Vars() {
						addUse(v, false, 0)
					}
				}
			}
		}
		switch s.Kind {
		case ir.SAssign:
			record(s.A, 2)
			if s.Op != ir.OpCopy {
				record(s.B, 3)
			}
		case ir.SIf:
			record(s.A, 2)
			record(s.B, 3)
		case ir.SDoHead:
			record(s.Init, 1)
			record(s.Final, 2)
			record(s.Step, 3)
		case ir.SPrint:
			for k, arg := range s.Args {
				record(arg, k+1)
			}
		}
		// Subscript reads of an array destination.
		if (s.Kind == ir.SAssign || s.Kind == ir.SRead) && s.Dst.IsArray() {
			for _, sub := range s.Dst.Subs {
				for _, v := range sub.Vars() {
					addUse(v, false, 0)
				}
			}
		}
	}
}

func (a *Analysis) defGenKill(p *ir.Program) (gen, kill []BitSet) {
	n := p.Len()
	nd := len(a.Defs)
	gen = makeSets(n, nd)
	kill = makeSets(n, nd)
	for di, d := range a.Defs {
		gen[d.StmtIdx].Set(di)
		if d.IsArray {
			continue // may-def: kills nothing
		}
		for dj, e := range a.Defs {
			if dj != di && !e.IsArray && e.Name == d.Name {
				kill[d.StmtIdx].Set(dj)
			}
		}
	}
	return gen, kill
}

func (a *Analysis) useGenKill(p *ir.Program) (gen, kill []BitSet) {
	n := p.Len()
	nu := len(a.Uses)
	gen = makeSets(n, nu)
	kill = makeSets(n, nu)
	for ui, u := range a.Uses {
		gen[u.StmtIdx].Set(ui)
	}
	// A scalar definition of x stops propagation of uses of x.
	for i := 0; i < n; i++ {
		for _, di := range a.defsAt[i] {
			d := a.Defs[di]
			if d.IsArray {
				continue
			}
			for ui, u := range a.Uses {
				if !u.IsArray && u.Name == d.Name && u.StmtIdx != i {
					kill[i].Set(ui)
				}
			}
		}
	}
	return gen, kill
}

func makeSets(n, domain int) []BitSet {
	out := make([]BitSet, n)
	for i := range out {
		out[i] = NewBitSet(domain)
	}
	return out
}

// solveForward computes IN[i] = ∪_{p ∈ pred(i)} OUT[p] with
// OUT[i] = gen[i] ∪ (IN[i] − kill[i]), returning IN.
func solveForward(g *cfg.Graph, gen, kill []BitSet, domain int) []BitSet {
	n := len(g.Succ)
	in := makeSets(n, domain)
	out := make([]BitSet, n)
	for i := 0; i < n; i++ {
		out[i] = gen[i].Copy()
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			for _, pi := range g.Pred[i] {
				if in[i].OrInto(out[pi]) {
					changed = true
				}
			}
			next := in[i].Copy()
			next.AndNotInto(kill[i])
			next.OrInto(gen[i])
			if !next.Equal(out[i]) {
				out[i] = next
				changed = true
			}
		}
	}
	return in
}

// solveBackward computes EXPOSED[i] = gen[i] ∪ ((∪_{s ∈ succ(i)} EXPOSED[s])
// − kill[i]): the facts reachable from i along paths on which i's kills
// apply first.
func solveBackward(g *cfg.Graph, gen, kill []BitSet, domain int) []BitSet {
	n := len(g.Succ)
	exp := make([]BitSet, n)
	for i := 0; i < n; i++ {
		exp[i] = gen[i].Copy()
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			acc := NewBitSet(domain)
			for _, si := range g.Succ[i] {
				acc.OrInto(exp[si])
			}
			acc.AndNotInto(kill[i])
			acc.OrInto(gen[i])
			if !acc.Equal(exp[i]) {
				exp[i] = acc
				changed = true
			}
		}
	}
	return exp
}

// DefsAt returns the definitions made by statement i.
func (a *Analysis) DefsAt(i int) []Def {
	out := make([]Def, 0, len(a.defsAt[i]))
	for _, di := range a.defsAt[i] {
		out = append(out, a.Defs[di])
	}
	return out
}

// UsesAt returns the uses made by statement i.
func (a *Analysis) UsesAt(i int) []Use {
	out := make([]Use, 0, len(a.usesAt[i]))
	for _, ui := range a.usesAt[i] {
		out = append(out, a.Uses[ui])
	}
	return out
}

// DefIdxsAt returns indices into Defs for statement i.
func (a *Analysis) DefIdxsAt(i int) []int { return a.defsAt[i] }

// UseIdxsAt returns indices into Uses for statement i.
func (a *Analysis) UseIdxsAt(i int) []int { return a.usesAt[i] }

func (a *Analysis) liveness() {
	n := len(a.Graph.Succ)
	liveIn := make([]map[string]bool, n)
	liveOut := make([]map[string]bool, n)
	for i := 0; i < n; i++ {
		liveIn[i] = map[string]bool{}
		liveOut[i] = map[string]bool{}
	}
	changed := true
	for changed {
		changed = false
		for i := n - 1; i >= 0; i-- {
			for _, s := range a.Graph.Succ[i] {
				for v := range liveIn[s] {
					if !liveOut[i][v] {
						liveOut[i][v] = true
						changed = true
					}
				}
			}
			newIn := map[string]bool{}
			for _, u := range a.UsesAt(i) {
				newIn[u.Name] = true
			}
			defName, defKills := "", false
			for _, d := range a.DefsAt(i) {
				if !d.IsArray {
					defName, defKills = d.Name, true
				}
			}
			for v := range liveOut[i] {
				if defKills && v == defName {
					continue
				}
				newIn[v] = true
			}
			if !sameStringSet(newIn, liveIn[i]) {
				liveIn[i] = newIn
				changed = true
			}
		}
	}
	a.liveOut = liveOut
}

func sameStringSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// LiveOutOf reports whether name is live at exit of statement i. The first
// call computes liveness for the whole snapshot; it is safe for concurrent
// use.
func (a *Analysis) LiveOutOf(i int, name string) bool {
	a.liveOnce.Do(a.liveness)
	if i < 0 || i >= len(a.liveOut) {
		return false
	}
	return a.liveOut[i][name]
}
