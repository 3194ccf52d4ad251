// Package region partitions one program into dependence-disjoint regions
// so the match/depend/act fixpoint can run on every region concurrently —
// one private journal per region, merged deterministically — while the
// optimized output stays byte-identical to the sequential engine
// regardless of worker count or scheduling.
//
// A region is a contiguous run of whole top-level units (a top-level loop
// or conditional together with its entire body, or a single flat
// statement). Working in whole units keeps every control-dependence
// frontier inside one region: a branch or loop head and all statements
// control-dependent on it always land together. Two adjacent units stay in
// the same region unless (a) no dependence edge of any kind — flow, anti,
// output or control — crosses the boundary between them, and (b) the units
// on both sides are not both loops (adjacent-loop patterns such as fusion
// match across exactly that seam). Under that cut rule the regions are
// unions of connected components of the statement-level dependence
// relation, so fixpoints in distinct regions cannot interact.
package region

import (
	"repro/dep"
	"repro/internal/gospel"
	"repro/ir"
)

// Region is a contiguous statement-index range [Start, End) of the parent
// program, covering whole top-level units.
type Region struct {
	Start, End int
}

// Partition is an ordered, gap-free cover of a program's statements by
// dependence-disjoint regions.
type Partition struct {
	Regions []Region
}

// Len returns the number of regions.
func (pt Partition) Len() int { return len(pt.Regions) }

// unit is one top-level syntactic unit: a flat statement, or a loop or
// conditional with its whole body.
type unit struct {
	start, end int
	loop       bool
}

func topLevelUnits(p *ir.Program) []unit {
	stmts := p.Stmts()
	var units []unit
	for i := 0; i < len(stmts); {
		start := i
		loop := stmts[i].Kind == ir.SDoHead
		depth := 0
		for i < len(stmts) {
			switch stmts[i].Kind {
			case ir.SDoHead, ir.SIf:
				depth++
			case ir.SDoEnd, ir.SEndIf:
				depth--
			}
			i++
			if depth <= 0 {
				break
			}
		}
		units = append(units, unit{start: start, end: i, loop: loop})
	}
	return units
}

// Compute partitions p into dependence-disjoint regions using an
// already-computed dependence graph (which must describe p's current
// state). Entry-sourced edges are ignored: they model possibly
// uninitialized uses, not coupling between two program points — and a
// genuine cross-region def–use of the same variable always contributes a
// real flow, anti or output edge that blocks the cut on its own.
func Compute(p *ir.Program, g *dep.Graph) Partition {
	stmts := p.Stmts()
	n := len(stmts)
	if n == 0 {
		return Partition{}
	}
	units := topLevelUnits(p)
	if len(units) <= 1 {
		return Partition{Regions: []Region{{Start: 0, End: n}}}
	}
	pos := make(map[int]int, n)
	for i, s := range stmts {
		pos[s.ID] = i
	}
	// A cut before statement index k is blocked when some dependence edge
	// (src, dst) spans it: min < k <= max over the endpoint indices. Built
	// as a difference array so the whole edge list is one linear sweep.
	diff := make([]int, n+2)
	for _, d := range g.Deps() {
		if d.Src == g.Entry || d.Dst == g.Entry {
			continue
		}
		si, ok := pos[d.Src.ID]
		if !ok {
			continue
		}
		di, ok := pos[d.Dst.ID]
		if !ok {
			continue
		}
		lo, hi := si, di
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo == hi {
			continue
		}
		diff[lo+1]++
		diff[hi+1]--
	}
	blocked := make([]int, n+1)
	run := 0
	for k := 0; k <= n; k++ {
		run += diff[k]
		blocked[k] = run
	}
	var regions []Region
	start := 0
	for u := 0; u+1 < len(units); u++ {
		cut := units[u].end
		if blocked[cut] > 0 {
			continue
		}
		if units[u].loop && units[u+1].loop {
			continue
		}
		regions = append(regions, Region{Start: start, End: cut})
		start = cut
	}
	regions = append(regions, Region{Start: start, End: n})
	return Partition{Regions: regions}
}

// depPreds are the GOSpeL dependence predicates; a quantified Depend
// clause anchored by one of these on an already-bound element can only
// range over edges incident to that element, which a region cut guarantees
// stay inside the region.
var depPreds = map[string]bool{
	"flow_dep":  true,
	"anti_dep":  true,
	"out_dep":   true,
	"ctrl_dep":  true,
	"fused_dep": true,
}

// EligibleSpec reports whether a specification may run region-at-a-time
// with a result identical to the whole-program fixpoint. The walk is
// conservative; anything it cannot prove region-local keeps the spec on
// the whole-program path (which region-parallel execution still
// accelerates by sharding the candidate search):
//
//   - `all` pattern clauses bind the set of matching statements in the
//     whole program, which a region cannot reproduce;
//   - `.next` / `.prev` attributes reach across arbitrary statement
//     boundaries, including region seams;
//   - Adjacent-Loops elements match across exactly the seams the
//     partitioner cuts;
//   - a quantified or element-introducing Depend clause must be anchored —
//     via a dependence predicate or a membership set mentioning an element
//     bound earlier — or its candidate range is the whole program.
func EligibleSpec(s *gospel.Spec) bool {
	if s == nil {
		return false
	}
	for _, td := range s.Types {
		if td.Kind == gospel.KAdjacentLoops {
			return false
		}
	}
	for _, pc := range s.Patterns {
		if pc.Quant == gospel.QAll {
			return false
		}
		if usesOrder(pc.Format) {
			return false
		}
	}
	for _, dc := range s.Depends {
		if usesOrder(dc.Sets) || usesOrder(dc.Conds) {
			return false
		}
		if len(dc.Elems) > 0 || dc.Quant != gospel.QAny {
			if !anchored(dc) {
				return false
			}
		}
	}
	for _, a := range s.Actions {
		if actionUsesOrder(a) {
			return false
		}
	}
	return true
}

// usesOrder reports whether e navigates statement order via .next/.prev.
func usesOrder(e gospel.Expr) bool {
	switch x := e.(type) {
	case nil:
		return false
	case gospel.Attr:
		if x.Name == "next" || x.Name == "prev" {
			return true
		}
		return usesOrder(x.Base)
	case gospel.Call:
		for _, a := range x.Args {
			if usesOrder(a) {
				return true
			}
		}
	case gospel.Binary:
		return usesOrder(x.L) || usesOrder(x.R)
	case gospel.Not:
		return usesOrder(x.E)
	}
	return false
}

func actionUsesOrder(a gospel.Action) bool {
	switch x := a.(type) {
	case gospel.DeleteAction:
		return usesOrder(x.Target)
	case gospel.CopyAction:
		return usesOrder(x.Src) || usesOrder(x.After)
	case gospel.MoveAction:
		return usesOrder(x.Src) || usesOrder(x.After)
	case gospel.AddAction:
		return usesOrder(x.After) || usesOrder(x.Desc)
	case gospel.ModifyAction:
		return usesOrder(x.Target) || usesOrder(x.Value)
	case gospel.ForallAction:
		if usesOrder(x.Set) {
			return true
		}
		for _, b := range x.Body {
			if actionUsesOrder(b) {
				return true
			}
		}
	}
	return false
}

// anchored reports whether dc's candidate range is tied to an element
// bound by an earlier clause: a membership set mentioning one, or a
// dependence predicate with one as an argument.
func anchored(dc gospel.DependClause) bool {
	own := map[string]bool{}
	for _, e := range dc.Elems {
		own[e] = true
	}
	if dc.Sets != nil && mentionsOutside(dc.Sets, own) {
		return true
	}
	found := false
	walkCalls(dc.Conds, func(c gospel.Call) {
		if found || !depPreds[c.Fn] {
			return
		}
		for _, a := range c.Args {
			if mentionsOutside(a, own) {
				found = true
				return
			}
		}
	})
	return found
}

// mentionsOutside reports whether e references an identifier not in own.
func mentionsOutside(e gospel.Expr, own map[string]bool) bool {
	switch x := e.(type) {
	case nil:
		return false
	case gospel.Ident:
		return !own[x.Name]
	case gospel.Attr:
		return mentionsOutside(x.Base, own)
	case gospel.Call:
		for _, a := range x.Args {
			if mentionsOutside(a, own) {
				return true
			}
		}
	case gospel.Binary:
		return mentionsOutside(x.L, own) || mentionsOutside(x.R, own)
	case gospel.Not:
		return mentionsOutside(x.E, own)
	}
	return false
}

func walkCalls(e gospel.Expr, f func(gospel.Call)) {
	switch x := e.(type) {
	case gospel.Call:
		f(x)
		for _, a := range x.Args {
			walkCalls(a, f)
		}
	case gospel.Binary:
		walkCalls(x.L, f)
		walkCalls(x.R, f)
	case gospel.Not:
		walkCalls(x.E, f)
	case gospel.Attr:
		walkCalls(x.Base, f)
	}
}
