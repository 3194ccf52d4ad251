package dep

import (
	"slices"

	"repro/ir"
)

// access is one array reference in a statement: a read or a write.
type access struct {
	stmt    *ir.Stmt
	op      ir.Operand // the ArrayRef operand
	idx     int32      // the statement's position, set by collectArrayGroups
	isWrite bool
	pos     int // operand position (paper numbering); 1 for writes
}

// arrayDeps computes flow/anti/output dependences between array accesses
// using subscript tests on the affine subscript expressions:
//
//   - per-dimension strong SIV (a*i + c1 vs a*i + c2) gives an exact
//     distance and thus a single direction for that loop;
//   - ZIV (no index variables) proves or disproves the dimension;
//   - everything else falls back to a GCD test, which either disproves the
//     dependence or leaves all directions possible.
//
// Direction vectors with a leading '>' describe the reversed dependence and
// are discovered when the symmetric ordered pair is processed, so only '='
// and leading-'<' vectors are emitted here.
//
// A non-nil edited set restricts the pass to the access pairs with at least
// one endpoint in it (the incremental updater's edited statements); nil
// tests every pair.
func (g *Graph) arrayDeps(lt *loopTable, edited map[*ir.Stmt]bool) {
	// Deterministic order: the dependence list's order feeds candidate
	// enumeration and therefore the cost experiments.
	groups := g.collectArrayGroups(edited)
	for _, group := range groups {
		g.pairTests(group, lt, edited, g.add)
	}
	for i := range groups {
		clear(groups[i]) // drop the statements until the next build
		groups[i] = groups[i][:0]
	}
}

// arrayScratch is the working state of arrayDeps, kept in the graph's
// updateScratch so its maps and slices are reused across builds and
// updates.
type arrayScratch struct {
	group  map[string]int  // array name → index in groups
	groups [][]access      // per-array accesses, arrays in first-access order
	want   map[string]bool // the arrays an update re-tests
	acc    []access        // one statement's accesses
	mark   []bool          // by group index: the access is in an edited statement
}

// collectArrayGroups returns the per-array access groups the pair tests
// run over, arrays in order of first access, and keeps the array-name
// census (g.arrays) current. A nil edited set groups every access of the
// program. A non-nil one groups only the arrays some edited statement
// still in the program accesses. Those statements are the only source of
// names the census has not seen since the last full build. The groups
// are the graph's scratch, valid until the next call.
func (g *Graph) collectArrayGroups(edited map[*ir.Stmt]bool) [][]access {
	if g.arrays == nil {
		g.arrays = make(map[string]bool)
	}
	a := &g.up.array
	var want map[string]bool
	if edited != nil {
		if a.want == nil {
			a.want = make(map[string]bool)
		}
		want = a.want
		clear(want)
		for s := range edited {
			if g.Prog.Index(s) < 0 {
				continue
			}
			a.acc = appendAccesses(a.acc[:0], s)
			for _, ac := range a.acc {
				want[ac.op.Name] = true
				g.noteArray(ac.op.Name)
			}
		}
		if len(want) == 0 {
			return nil
		}
	}
	if a.group == nil {
		a.group = make(map[string]int)
	}
	clear(a.group)
	groups := a.groups[:0]
	for si, s := range g.Prog.Stmts() {
		a.acc = appendAccesses(a.acc[:0], s)
		for _, ac := range a.acc {
			ac.idx = int32(si)
			name := ac.op.Name
			if want != nil && !want[name] {
				continue
			}
			g.noteArray(name)
			i, seen := a.group[name]
			if !seen {
				i = len(groups)
				a.group[name] = i
				// Reslicing past len recovers the emptied group stored there.
				if i < cap(groups) {
					groups = groups[:i+1]
				} else {
					groups = append(groups, nil)
				}
			}
			groups[i] = append(groups[i], ac)
		}
	}
	clear(a.acc[:cap(a.acc)])
	a.groups = groups
	return groups
}

// pairTests runs the subscript tests over the ordered pairs of one array's
// accesses that can yield a dependence, emitting the resulting edges. A
// non-nil edited set skips the pairs with neither statement in it.
//
// A pair whose statements share no loop and whose source does not come
// before its sink is skipped: with no common loop there is no carried
// dependence, and the loop-independent one needs the source lexically
// first, so testPair would emit nothing for it.
func (g *Graph) pairTests(group []access, lt *loopTable, edited map[*ir.Stmt]bool, emit func(Dependence)) {
	var mark []bool
	if edited != nil {
		mark = slices.Grow(g.up.array.mark[:0], len(group))[:len(group)]
		for i, ac := range group {
			mark[i] = edited[ac.stmt]
		}
		g.up.array.mark = mark
	}
	for i := range group {
		src := &group[i]
		for j := range group {
			dst := &group[j]
			if mark != nil && !mark[i] && !mark[j] {
				continue
			}
			if src.idx >= dst.idx && len(lt.common(int(src.idx), int(dst.idx))) == 0 {
				continue
			}
			kind, ok := pairKind(src, dst)
			if !ok {
				continue
			}
			g.testPair(kind, src, dst, lt, emit)
		}
	}
}

func pairKind(src, dst *access) (Kind, bool) {
	switch {
	case src.isWrite && !dst.isWrite:
		return Flow, true
	case !src.isWrite && dst.isWrite:
		return Anti, true
	case src.isWrite && dst.isWrite:
		if src.stmt == dst.stmt && src.pos == dst.pos {
			return Output, false // the same single store
		}
		return Output, true
	}
	return 0, false // read-read: no dependence
}

// appendAccesses appends the array accesses of statement s to out: the
// store first, then the reads in operand-slot order. It leaves idx unset.
func appendAccesses(out []access, s *ir.Stmt) []access {
	store := s.Kind == ir.SAssign || s.Kind == ir.SRead
	if store && s.Dst.IsArray() {
		out = append(out, access{stmt: s, op: s.Dst, isWrite: true, pos: 1})
	}
	for slot := 1; slot <= 3+len(s.Args); slot++ {
		if store && slot == 1 {
			continue // the write, already recorded
		}
		if opp := s.OperandSlot(slot); opp != nil && opp.IsArray() {
			out = append(out, access{stmt: s, op: *opp, isWrite: false, pos: slot})
		}
	}
	return out
}

// testPair runs the subscript tests for one ordered access pair and emits
// the resulting dependences.
func (g *Graph) testPair(kind Kind, src, dst *access, lt *loopTable, emit func(Dependence)) {
	srcIdx, dstIdx := int(src.idx), int(dst.idx)
	common := lt.common(srcIdx, dstIdx)
	n := len(common)
	// Common nests are shallow; the fixed buffers keep a pair test's
	// working state off the heap.
	var lcvBuf [4]string
	var boundBuf [4]levelBounds
	var dirBuf [4]DirSet
	nest := newLoopNest(common, lcvBuf[:0], boundBuf[:0])
	dirs := dirBuf[:0]
	for range n {
		dirs = append(dirs, DirAny)
	}
	dims := len(src.op.Subs)
	if len(dst.op.Subs) < dims {
		dims = len(dst.op.Subs)
	}
	for d := 0; d < dims; d++ {
		if !constrainDim(src.op.Subs[d], dst.op.Subs[d], &nest, dirs) {
			return // this dimension proves independence
		}
	}

	// Loop-independent dependence: all levels admit '=' and the source is
	// lexically (and thus execution-order, within one iteration) first.
	allEq := true
	for _, ds := range dirs {
		if !ds.Has(DirEQ) {
			allEq = false
			break
		}
	}
	sameStore := src.stmt == dst.stmt && src.pos == dst.pos
	if allEq && srcIdx < dstIdx && !sameStore {
		emit(Dependence{
			Kind: kind, Src: src.stmt, Dst: dst.stmt, Var: src.op.Name,
			Vec: eqVector(n), SrcPos: src.pos, DstPos: dst.pos,
		})
	}
	// Within-statement loop-independent anti dependence (read then write in
	// the same statement instance, e.g. a(i) = a(i) + 1) is execution-order
	// trivial and conventionally not recorded.

	// Loop-carried dependences at each level with a '<' direction.
	for k := 0; k < n; k++ {
		ok := dirs[k].Has(DirLT)
		for j := 0; j < k && ok; j++ {
			ok = dirs[j].Has(DirEQ)
		}
		if !ok {
			continue
		}
		vec := make(Vector, n)
		for j := range vec {
			switch {
			case j < k:
				vec[j] = DirEQ
			case j == k:
				vec[j] = DirLT
			default:
				vec[j] = dirs[j]
			}
		}
		emit(Dependence{
			Kind: kind, Src: src.stmt, Dst: dst.stmt, Var: src.op.Name,
			Vec: vec, SrcPos: src.pos, DstPos: dst.pos,
			Carried: true, Level: k + 1,
		})
	}
}

// loopNest describes the loops a subscript test runs under, outermost
// first: each level's index variable and, for constant-bound loops, the
// iteration-value range the Banerjee and weak-SIV tests consume.
type loopNest struct {
	lcvs   []string
	bounds []levelBounds
}

// levelBounds is one level's iteration range [lo, hi]; ok is false when
// the loop's bounds are not constant.
type levelBounds struct {
	lo, hi int64
	ok     bool
}

// newLoopNest describes loops, appending to the given (empty) buffers.
func newLoopNest(loops []ir.Loop, lcvs []string, bounds []levelBounds) loopNest {
	nest := loopNest{lcvs: lcvs, bounds: bounds}
	for _, l := range loops {
		nest.lcvs = append(nest.lcvs, l.LCV())
		nest.bounds = append(nest.bounds, levelBounds{})
	}
	for _, l := range loops {
		// A level whose index variable an inner loop reuses is never
		// looked up; its range lands on the inner level unless the inner
		// loop's own constant range overwrites it.
		k, _ := nest.level(l.LCV())
		h := l.Head
		if !h.Init.IsConst() || !h.Final.IsConst() {
			continue
		}
		lo, hi := h.Init.Val.AsInt(), h.Final.Val.AsInt()
		if lo > hi {
			lo, hi = hi, lo
		}
		nest.bounds[k] = levelBounds{lo: lo, hi: hi, ok: true}
	}
	return nest
}

// level returns the level whose index variable is name — the innermost
// one when nested loops share a variable — and whether there is one.
func (n *loopNest) level(name string) (int, bool) {
	for k := len(n.lcvs) - 1; k >= 0; k-- {
		if n.lcvs[k] == name {
			return k, true
		}
	}
	return 0, false
}

// normalized returns e.Normalize(), returning e itself when it is already
// in normal form (terms strictly ordered by variable, no zero coefficient)
// so the common case allocates nothing.
func normalized(e ir.LinExpr) ir.LinExpr {
	for i, t := range e.Terms {
		if t.Coef == 0 || i > 0 && e.Terms[i-1].Var >= t.Var {
			return e.Normalize()
		}
	}
	return e
}

// constrainDim intersects the direction sets with the constraints from one
// subscript dimension (equation f(I) = g(I')). It returns false when the
// dimension proves there is no dependence. The nest's bounds carry the
// known iteration ranges per level for the Banerjee-style interval test.
func constrainDim(f, gexp ir.LinExpr, nest *loopNest, dirs []DirSet) bool {
	f = normalized(f)
	gexp = normalized(gexp)

	// Loop-invariant symbols appearing with equal coefficients on both
	// sides cancel (the classical assumption); any remaining symbolic term
	// makes the dimension inconclusive — no constraint. Both term lists
	// are sorted by variable, so one merge walk nets each symbol.
	for i, j := 0, 0; i < len(f.Terms) || j < len(gexp.Terms); {
		var name string
		var net int64 // src coef − dst coef
		switch {
		case j == len(gexp.Terms) || i < len(f.Terms) && f.Terms[i].Var < gexp.Terms[j].Var:
			name, net = f.Terms[i].Var, f.Terms[i].Coef
			i++
		case i == len(f.Terms) || gexp.Terms[j].Var < f.Terms[i].Var:
			name, net = gexp.Terms[j].Var, -gexp.Terms[j].Coef
			j++
		default:
			name, net = f.Terms[i].Var, f.Terms[i].Coef-gexp.Terms[j].Coef
			i++
			j++
		}
		if _, isIndex := nest.level(name); !isIndex && net != 0 {
			return true
		}
	}

	// The common-loop index terms of both sides, per level.
	type coefs struct{ src, dst int64 }
	var coefBuf [4]coefs
	loopCoef := coefBuf[:0]
	for range nest.lcvs {
		loopCoef = append(loopCoef, coefs{})
	}
	for _, t := range f.Terms {
		if k, ok := nest.level(t.Var); ok {
			loopCoef[k].src += t.Coef
		}
	}
	for _, t := range gexp.Terms {
		if k, ok := nest.level(t.Var); ok {
			loopCoef[k].dst += t.Coef
		}
	}
	cdiff := f.Const - gexp.Const // f + cdiff*0: equation Σ a·i − Σ b·i' = −cdiff

	// ZIV: no loop terms at all.
	live := 0
	for _, c := range loopCoef {
		if c.src != 0 || c.dst != 0 {
			live++
		}
	}
	if live == 0 {
		return cdiff == 0
	}

	// Strong SIV: exactly one loop level involved, equal coefficients.
	if live == 1 {
		for k, c := range loopCoef {
			if c.src == 0 && c.dst == 0 {
				continue
			}
			b := nest.bounds[k]
			if c.src == c.dst && c.src != 0 {
				// a·i + cf = a·i′ + cg  ⇒  i′ − i = (cf − cg)/a = cdiff/a.
				if cdiff%c.src != 0 {
					return false
				}
				delta := cdiff / c.src
				// With known bounds, a distance beyond the iteration span
				// can never be realized.
				if b.ok && abs(delta) > b.hi-b.lo {
					return false
				}
				switch {
				case delta > 0:
					dirs[k] = dirs[k].Intersect(DirLT)
				case delta == 0:
					dirs[k] = dirs[k].Intersect(DirEQ)
				default:
					dirs[k] = dirs[k].Intersect(DirGT)
				}
				return dirs[k] != 0
			}
			// Weak-zero SIV: one side does not move with the loop
			// (a·i + cf = cg): the moving side must hit one exact
			// iteration value.
			if (c.src == 0) != (c.dst == 0) {
				var i0 int64
				switch {
				case c.src != 0: // a·i + cf = cg  ⇒  i = −cdiff/a
					if cdiff%c.src != 0 {
						return false
					}
					i0 = -cdiff / c.src
				default: // cf = b·i′ + cg  ⇒  i′ = cdiff/b
					if cdiff%c.dst != 0 {
						return false
					}
					i0 = cdiff / c.dst
				}
				if b.ok && (i0 < b.lo || i0 > b.hi) {
					return false
				}
				// Directions stay unconstrained (the fixed side pairs with
				// every iteration of the moving side).
				return true
			}
			// Weak-crossing SIV and the rest: fall through to the general
			// tests below.
		}
	}

	// GCD test over all loop coefficients (src and dst sides separately).
	var g int64
	for _, c := range loopCoef {
		g = gcd(g, abs(c.src))
		g = gcd(g, abs(c.dst))
	}
	if g != 0 && cdiff%g != 0 {
		return false
	}

	// Banerjee interval test: the equation Σ a·i − Σ b·i′ + cdiff = 0 has
	// no solution when the left side's interval over the known iteration
	// ranges excludes zero. Levels without known bounds make the interval
	// unbounded on the affected side.
	lo, hi := cdiff, cdiff
	for k, c := range loopCoef {
		b := nest.bounds[k]
		if !b.ok {
			if c.src != 0 || c.dst != 0 {
				return true
			}
			continue
		}
		for _, coef := range [2]int64{c.src, -c.dst} {
			if coef == 0 {
				continue
			}
			x, y := coef*b.lo, coef*b.hi
			if x > y {
				x, y = y, x
			}
			lo += x
			hi += y
		}
	}
	return lo <= 0 && hi >= 0
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
