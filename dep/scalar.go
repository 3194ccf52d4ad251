package dep

import "repro/internal/dataflow"

// scalarDepsFrom derives flow, anti and output dependences between scalar
// accesses from the dataflow facts. Each dependence is classified as
// loop-independent (present on the forward-only graph) and/or loop-carried
// at level k (the fact survives one iteration of common loop k and the sink
// access is exposed from that loop's body entry). The analysis may be
// name-restricted (dataflow.Workspace.AnalyzeNames): only dependences among
// its collected defs/uses are produced, which is how incremental updates
// rebuild just the dirty names. Each dependence pairs two sites of one
// name, so the pairs are drawn from the analysis's per-name site runs.
func (g *Graph) scalarDepsFrom(a *dataflow.Analysis, lt *loopTable) {
	p := g.Prog
	for name := range a.ScalarNames() {
		defs, uses := a.ScalarSites(name)

		// Flow dependences: def d at s reaching scalar use u at t.
		for _, ui := range uses {
			u := a.Uses[ui]
			t := p.At(u.StmtIdx)
			for _, di := range defs {
				d := a.Defs[di]
				s := p.At(d.StmtIdx)
				if !a.ReachIn.Has(u.StmtIdx, di) {
					continue
				}
				common := lt.common(d.StmtIdx, u.StmtIdx)
				if a.ReachInF.Has(u.StmtIdx, di) && d.StmtIdx < u.StmtIdx {
					g.add(Dependence{
						Kind: Flow, Src: s, Dst: t, Var: d.Name,
						Vec: eqVector(len(common)), SrcPos: 1, DstPos: u.Pos,
					})
				}
				for k, l := range common {
					if !l.Contains(p, s) {
						continue // carried deps need the source inside the loop
					}
					endIdx := p.Index(l.End)
					headIdx := p.Index(l.Head)
					if a.ReachInF.Has(endIdx, di) && a.ExposedUses.Has(headIdx, ui) {
						g.add(Dependence{
							Kind: Flow, Src: s, Dst: t, Var: d.Name,
							Vec: carriedVector(len(common), k), SrcPos: 1, DstPos: u.Pos,
							Carried: true, Level: k + 1,
						})
					}
				}
			}
		}

		// Anti dependences: scalar use u at s reaching a scalar def at t.
		for _, di := range defs {
			d := a.Defs[di]
			t := p.At(d.StmtIdx)
			for _, ui := range uses {
				u := a.Uses[ui]
				s := p.At(u.StmtIdx)
				if !a.UseReachIn.Has(d.StmtIdx, ui) {
					continue
				}
				common := lt.common(u.StmtIdx, d.StmtIdx)
				if a.UseReachInF.Has(d.StmtIdx, ui) && u.StmtIdx < d.StmtIdx {
					g.add(Dependence{
						Kind: Anti, Src: s, Dst: t, Var: d.Name,
						Vec: eqVector(len(common)), SrcPos: u.Pos, DstPos: 1,
					})
				}
				for k, l := range common {
					if !l.Contains(p, s) {
						continue
					}
					endIdx := p.Index(l.End)
					headIdx := p.Index(l.Head)
					if a.UseReachInF.Has(endIdx, ui) && a.ExposedDefs.Has(headIdx, di) {
						g.add(Dependence{
							Kind: Anti, Src: s, Dst: t, Var: d.Name,
							Vec: carriedVector(len(common), k), SrcPos: u.Pos, DstPos: 1,
							Carried: true, Level: k + 1,
						})
					}
				}
			}
		}

		// Output dependences: scalar def at s reaching a scalar
		// redefinition at t.
		for _, dj := range defs {
			e := a.Defs[dj]
			t := p.At(e.StmtIdx)
			for _, di := range defs {
				if di == dj {
					continue
				}
				d := a.Defs[di]
				s := p.At(d.StmtIdx)
				if !a.ReachIn.Has(e.StmtIdx, di) {
					continue
				}
				common := lt.common(d.StmtIdx, e.StmtIdx)
				if a.ReachInF.Has(e.StmtIdx, di) && d.StmtIdx < e.StmtIdx {
					g.add(Dependence{
						Kind: Output, Src: s, Dst: t, Var: d.Name,
						Vec: eqVector(len(common)), SrcPos: 1, DstPos: 1,
					})
				}
				for k, l := range common {
					if !l.Contains(p, s) {
						continue
					}
					endIdx := p.Index(l.End)
					headIdx := p.Index(l.Head)
					if a.ReachInF.Has(endIdx, di) && a.ExposedDefs.Has(headIdx, dj) {
						g.add(Dependence{
							Kind: Output, Src: s, Dst: t, Var: d.Name,
							Vec: carriedVector(len(common), k), SrcPos: 1, DstPos: 1,
							Carried: true, Level: k + 1,
						})
					}
				}
			}
		}
	}

	// Possibly-uninitialized uses: the implicit zero definition at program
	// entry reaches every upward-exposed scalar use, giving it a second
	// "definition" that propagation-style optimizations must respect.
	a.UpwardExposed.ForEach(func(ui int) {
		u := a.Uses[ui]
		if u.IsArray {
			return
		}
		g.add(Dependence{
			Kind: Flow, Src: g.Entry, Dst: p.At(u.StmtIdx), Var: u.Name,
			SrcPos: 0, DstPos: u.Pos,
		})
	})

	// Self output/anti carried for a statement redefining the same scalar
	// (e.g. "s = s + 1"): the def in iteration i and the def in iteration
	// i+1 conflict. The general loops above cover distinct statements; the
	// self-output case (di == dj) needs its own pass.
	for di, d := range a.Defs {
		if d.IsArray {
			continue
		}
		s := p.At(d.StmtIdx)
		common := lt.at(d.StmtIdx)
		for k, l := range common {
			endIdx := p.Index(l.End)
			headIdx := p.Index(l.Head)
			if a.ReachInF.Has(endIdx, di) && a.ExposedDefs.Has(headIdx, di) {
				g.add(Dependence{
					Kind: Output, Src: s, Dst: s, Var: d.Name,
					Vec: carriedVector(len(common), k), SrcPos: 1, DstPos: 1,
					Carried: true, Level: k + 1,
				})
			}
		}
	}
}

// eqVector returns an all-'=' vector of length n.
func eqVector(n int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = DirEQ
	}
	return v
}

// carriedVector returns (=,...,=,<,*,...,*) with '<' at position k
// (0-based) in a vector of length n.
func carriedVector(n, k int) Vector {
	v := make(Vector, n)
	for i := range v {
		switch {
		case i < k:
			v[i] = DirEQ
		case i == k:
			v[i] = DirLT
		default:
			v[i] = DirAny
		}
	}
	return v
}
