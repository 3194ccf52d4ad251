package dataflow

import (
	"slices"
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

	// defStart[i] / useStart[i] index the first of statement i's entries in
	// Defs / Uses: both are collected in statement order, so statement i
	// owns Defs[defStart[i]:defStart[i+1]].
	defStart []int
	useStart []int

	// The scalar sites grouped by name. Names are numbered in order of
	// first appearance; name k's scalar definitions are
	// nameDefs[defRun[k]:defRun[k+1]] and its scalar uses
	// nameUses[useRun[k]:useRun[k+1]], each ascending.
	nameDefs, nameUses []int
	defRun, useRun     []int

	// ReachIn holds the definitions reaching the entry of each statement
	// (full CFG).
	ReachIn Facts
	// ReachInF is ReachIn on the forward-only CFG.
	ReachInF Facts
	// UseReachIn holds, for each statement i, the upward-exposed uses
	// reaching i: uses u with a path u → i containing no definition of u's
	// location (full CFG); drives anti-dependence queries.
	UseReachIn Facts
	// UseReachInF is UseReachIn on the forward-only CFG.
	UseReachInF Facts
	// ExposedUses holds, for each statement i, the uses u reachable from i
	// on a forward-only path that contains no definition of u's location
	// before the use.
	ExposedUses Facts
	// ExposedDefs holds, for each statement i, the definitions d reachable
	// from i on a forward-only path with no other definition of d's
	// location before d.
	ExposedDefs Facts
	// UpwardExposed = uses reachable from program entry on some path (back
	// edges included) with no definition of their location in between: the
	// uses the implicit zero-initialization at program entry can reach.
	UpwardExposed BitSet

	// liveOut[i] = names live at exit of statement i. Nothing on the
	// dependence path reads liveness, so it is computed on the first
	// LiveOutOf call rather than by Analyze; the Once makes that safe when
	// several goroutines read one analysis.
	liveOnce sync.Once
	liveOut  []map[string]bool
}

// Analyze runs the reaching-definition and exposed-use analyses on a
// snapshot of p. Liveness is not part of it: LiveOutOf computes it on first
// use.
func Analyze(p *ir.Program) *Analysis { return new(Workspace).analyze(p, nil) }

// Workspace is reusable storage for name-restricted analyses. Successive
// AnalyzeNames calls through one Workspace reuse its site lists and fact
// buffers, and reuse its CFGs while the program's statement kinds are
// unchanged — the CFG depends on nothing else — so a steady stream of
// analyses allocates nothing. The Analysis a call returns is valid until
// the Workspace's next call. A Workspace is not safe for concurrent use.
type Workspace struct {
	a     *Analysis
	prog  *ir.Program
	kinds []ir.StmtKind // the kind sequence a.Graph and a.FGraph were built for
	words []uint64      // every fact family's bits, the seeds and the marks

	// collect's name numbering: ids maps a scalar name to its number, and
	// defName/useName hold each site's number (-1 for an array site).
	ids              map[string]int
	defName, useName []int
}

// AnalyzeNames runs Analyze's analyses restricted to the definitions and
// uses of the given location names. Because gen/kill sets only interact
// within a single name (a definition of x kills only facts about x), the
// restricted facts for those names are identical to the corresponding
// slice of a full Analyze. Each fact family is one bit per restricted site
// and statement, and each solve visits only the statements facts flow
// through, so the work shrinks with the name set. The incremental
// dependence updater uses this to re-derive only the dependences of names
// an edit touched. A nil name set keeps every name, which gives a full
// analysis in reused storage. AnalyzeNames never computes liveness, and
// LiveOutOf should not be consulted on its result: a filtered analysis
// sees only the filtered names, and the next call overwrites any result.
// Analyze gives a snapshot for liveness.
func (w *Workspace) AnalyzeNames(p *ir.Program, names map[string]bool) *Analysis {
	return w.analyze(p, names)
}

func (w *Workspace) analyze(p *ir.Program, names map[string]bool) *Analysis {
	if w.a == nil {
		w.a = &Analysis{}
	}
	a := w.a
	if !w.sameShape(p) {
		a.Graph, a.FGraph = cfg.BuildBothInto(p, a.Graph, a.FGraph)
	}
	w.collect(p, names)
	n, nd, nu := p.Len(), len(a.Defs), len(a.Uses)

	// Six families of n sets over the definitions and six over the uses,
	// plus three statement sets — the statements that generate a
	// definition, those that generate a use, and the solvers' marks — all
	// carved from one word buffer.
	wd, wu, wn := (nd+63)/64, (nu+63)/64, (n+63)/64
	size := 6*n*(wd+wu) + 3*wn
	words := slices.Grow(w.words[:0], size)[:size]
	clear(words)
	w.words = words
	family := func(domain int) Facts {
		k := (domain + 63) / 64
		f := Facts{words: words[: n*k : n*k], stride: k, sites: domain, stmts: n}
		words = words[n*k:]
		return f
	}
	dSeeds, uSeeds, mark := words[:wn:wn], words[wn:2*wn:2*wn], words[2*wn:3*wn:3*wn]
	words = words[3*wn:]
	dGen, dKill, dOut := family(nd), family(nd), family(nd)
	uGen, uKill, uOut := family(nu), family(nu), family(nu)
	genKill(a, dGen, dKill, uGen, uKill, dSeeds, uSeeds)

	// out is the forward solvers' OUT scratch, shared across the solves of
	// one domain and cleared between them.
	a.ReachIn = solveForward(a.Graph, dGen, dKill, family(nd), dOut, dSeeds, mark)
	clear(dOut.words)
	a.ReachInF = solveForward(a.FGraph, dGen, dKill, family(nd), dOut, dSeeds, mark)
	a.UseReachIn = solveForward(a.Graph, uGen, uKill, family(nu), uOut, uSeeds, mark)
	clear(uOut.words)
	a.UseReachInF = solveForward(a.FGraph, uGen, uKill, family(nu), uOut, uSeeds, mark)
	a.ExposedUses = solveBackward(a.FGraph, uGen, uKill, family(nu), uSeeds, mark)
	a.ExposedDefs = solveBackward(a.FGraph, dGen, dKill, family(nd), dSeeds, mark)
	a.UpwardExposed = BitSet{n: nu}
	if n > 0 {
		clear(uOut.words)
		a.UpwardExposed = solveBackward(a.Graph, uGen, uKill, uOut, uSeeds, mark).At(0)
	}
	return a
}

// sameShape reports whether w's CFGs were built for p with the current
// statement kinds, recording p's kinds when they were not.
func (w *Workspace) sameShape(p *ir.Program) bool {
	same := w.prog == p && len(w.kinds) == p.Len()
	for i, s := range p.Stmts() {
		if same && w.kinds[i] != s.Kind {
			same = false
		}
	}
	if !same {
		w.prog = p
		w.kinds = w.kinds[:0]
		for _, s := range p.Stmts() {
			w.kinds = append(w.kinds, s.Kind)
		}
	}
	return same
}

// collect lists the definition and use sites of the kept names in
// statement order, then groups the scalar ones by name.
func (w *Workspace) collect(p *ir.Program, names map[string]bool) {
	a := w.a
	n := p.Len()
	a.Defs, a.Uses = a.Defs[:0], a.Uses[:0]
	a.defStart = slices.Grow(a.defStart[:0], n+1)[:n+1]
	a.useStart = slices.Grow(a.useStart[:0], n+1)[:n+1]
	if w.ids == nil {
		w.ids = make(map[string]int)
	}
	clear(w.ids)
	w.defName, w.useName = w.defName[:0], w.useName[:0]
	keep := func(name string) bool { return names == nil || names[name] }
	// number returns the id of a scalar name, or -1 for an array.
	number := func(name string, isArray bool) int {
		if isArray {
			return -1
		}
		k, ok := w.ids[name]
		if !ok {
			k = len(w.ids)
			w.ids[name] = k
		}
		return k
	}
	for i := 0; i < n; i++ {
		a.defStart[i], a.useStart[i] = len(a.Defs), len(a.Uses)
		s := p.At(i)
		if d, ok := s.Defs(); ok && keep(d.Name) {
			a.Defs = append(a.Defs, Def{StmtIdx: i, Name: d.Name, IsArray: d.IsArray()})
			w.defName = append(w.defName, number(d.Name, d.IsArray()))
		}
		addUse := func(name string, isArray bool, pos int) {
			if keep(name) {
				a.Uses = append(a.Uses, Use{StmtIdx: i, Name: name, IsArray: isArray, Pos: pos})
				w.useName = append(w.useName, number(name, isArray))
			}
		}
		subscripts := func(subs []ir.LinExpr) {
			for _, sub := range subs {
				for _, t := range sub.Terms {
					addUse(t.Var, false, 0)
				}
			}
		}
		record := func(op ir.Operand, pos int) {
			switch op.Kind {
			case ir.Var:
				addUse(op.Name, false, pos)
			case ir.ArrayRef:
				addUse(op.Name, true, pos)
				subscripts(op.Subs)
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
			subscripts(s.Dst.Subs)
		}
	}
	a.defStart[n], a.useStart[n] = len(a.Defs), len(a.Uses)
	a.nameDefs, a.defRun = groupByName(a.nameDefs, a.defRun, w.defName, len(w.ids))
	a.nameUses, a.useRun = groupByName(a.nameUses, a.useRun, w.useName, len(w.ids))
}

// groupByName counting-sorts the site indexes by their name numbers (sites
// numbered -1 are left out) into sites, with run[k]:run[k+1] delimiting
// name k's sites in ascending order. It reuses the storage of sites and run.
func groupByName(sites, run, name []int, names int) ([]int, []int) {
	run = slices.Grow(run[:0], names+1)[:names+1]
	clear(run)
	for _, k := range name {
		if k >= 0 {
			run[k+1]++
		}
	}
	for k := 1; k <= names; k++ {
		run[k] += run[k-1]
	}
	sites = slices.Grow(sites[:0], run[names])[:run[names]]
	// Placing a site advances run[k] to the end of name k's run, so
	// shifting run up by one afterwards restores the starts.
	for i, k := range name {
		if k >= 0 {
			sites[run[k]] = i
			run[k]++
		}
	}
	copy(run[1:], run[:names])
	run[0] = 0
	return sites, run
}

// ScalarNames returns the number of scalar names among the analysis's
// sites.
func (a *Analysis) ScalarNames() int { return len(a.defRun) - 1 }

// ScalarSites returns the indexes into Defs and Uses of the scalar
// definitions and uses of name k, 0 ≤ k < ScalarNames(), each ascending.
// Names are numbered in order of first appearance.
func (a *Analysis) ScalarSites(k int) (defs, uses []int) {
	return a.nameDefs[a.defRun[k]:a.defRun[k+1]], a.nameUses[a.useRun[k]:a.useRun[k+1]]
}

// genKill fills the gen and kill sets of both site families, and marks the
// statements that generate a definition in dSeeds and those that generate a
// use in uSeeds. A scalar definition of x kills every other definition of
// x, and stops the propagation of every use of x outside its own statement;
// array element stores are may-definitions and kill nothing. Walking the
// per-name site runs makes the work the sum of the per-name site-count
// products.
func genKill(a *Analysis, dGen, dKill, uGen, uKill Facts, dSeeds, uSeeds []uint64) {
	for di, d := range a.Defs {
		dGen.set(d.StmtIdx, di)
		setBit(dSeeds, d.StmtIdx)
	}
	for ui, u := range a.Uses {
		uGen.set(u.StmtIdx, ui)
		setBit(uSeeds, u.StmtIdx)
	}
	for k := range a.ScalarNames() {
		defs, uses := a.ScalarSites(k)
		for _, di := range defs {
			for _, dj := range defs {
				if dj != di {
					dKill.set(a.Defs[di].StmtIdx, dj)
				}
			}
		}
		for _, ui := range uses {
			for _, di := range defs {
				if i := a.Defs[di].StmtIdx; i != a.Uses[ui].StmtIdx {
					uKill.set(i, ui)
				}
			}
		}
	}
}

// The solvers below are seeded, statement-ordered worklists. The marks
// start at the statements whose gen set is not empty (seeds), since every
// other statement's facts stay empty until a neighbour's grow. A round
// visits the marked statements in statement order — reverse order for a
// backward solve — clearing each mark; when a statement's set grows, the
// statements its facts flow to are marked. Every CFG edge but a loop back
// edge (ENDDO → DO head) points forward in statement order, so those marks
// are visited later in the same round. A back edge's mark schedules one
// more round, starting at its target. On the forward-only CFG a solve is
// thus one ordered pass over the statements facts reach. The sets only
// grow from empty under monotone equations, so the result is the same
// least fixpoint a round-robin solve over every statement reaches.

// solveForward computes IN[i] = ∪_{p ∈ pred(i)} OUT[p] with
// OUT[i] = gen[i] ∪ (IN[i] − kill[i]) into the empty family in, using the
// empty family out as scratch, and returns in. seeds marks the statements
// with a nonempty gen set; mark is empty scratch over the statements, and
// is left empty. It works word by word in place and allocates nothing.
func solveForward(g *cfg.Graph, gen, kill, in, out Facts, seeds, mark []uint64) Facts {
	copy(mark, seeds)
	n, k := in.stmts, in.stride
	restart := n // the lowest statement a back edge marked this round
	for i := nextMark(mark, 0); ; i = nextMark(mark, i+1) {
		if i >= n {
			if restart == n {
				return in
			}
			i, restart = nextMark(mark, restart), n
		}
		mark[i/64] &^= 1 << (uint(i) % 64)
		lo, hi := i*k, i*k+k
		iw := in.words[lo:hi]
		for _, p := range g.Pred[i] {
			for w, v := range out.words[p*k : p*k+k] {
				iw[w] |= v
			}
		}
		gw, kw, ow := gen.words[lo:hi], kill.words[lo:hi], out.words[lo:hi]
		grew := false
		for w := range ow {
			if v := gw[w] | iw[w]&^kw[w]; v != ow[w] {
				ow[w] = v
				grew = true
			}
		}
		if !grew {
			continue
		}
		for _, s := range g.Succ[i] {
			setBit(mark, s)
			if s <= i {
				restart = min(restart, s)
			}
		}
	}
}

// solveBackward computes EXPOSED[i] = gen[i] ∪ ((∪_{s ∈ succ(i)} EXPOSED[s])
// − kill[i]) into the empty family exp and returns it: the facts reachable
// from i along paths on which i's kills apply first. Its seeds and marks
// are solveForward's, visited in reverse statement order.
func solveBackward(g *cfg.Graph, gen, kill, exp Facts, seeds, mark []uint64) Facts {
	copy(mark, seeds)
	k := exp.stride
	restart := -1 // the highest statement a back edge marked this round
	for i := prevMark(mark, exp.stmts-1); ; i = prevMark(mark, i-1) {
		if i < 0 {
			if restart < 0 {
				return exp
			}
			i, restart = prevMark(mark, restart), -1
		}
		mark[i/64] &^= 1 << (uint(i) % 64)
		lo, hi := i*k, i*k+k
		gw, kw, ew := gen.words[lo:hi], kill.words[lo:hi], exp.words[lo:hi]
		grew := false
		for w := range ew {
			var acc uint64
			for _, s := range g.Succ[i] {
				acc |= exp.words[s*k+w]
			}
			if v := gw[w] | acc&^kw[w]; v != ew[w] {
				ew[w] = v
				grew = true
			}
		}
		if !grew {
			continue
		}
		for _, p := range g.Pred[i] {
			setBit(mark, p)
			if p >= i {
				restart = max(restart, p)
			}
		}
	}
}

// DefsAt returns the definitions made by statement i.
func (a *Analysis) DefsAt(i int) []Def { return a.Defs[a.defStart[i]:a.defStart[i+1]] }

// UsesAt returns the uses made by statement i.
func (a *Analysis) UsesAt(i int) []Use { return a.Uses[a.useStart[i]:a.useStart[i+1]] }

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
