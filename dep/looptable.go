package dep

import (
	"slices"

	"repro/ir"
)

// loopTable caches the loop and control nesting of every statement of one
// program snapshot, built with two linear scans. It replaces the per-pair
// ir.CommonLoops calls (each of which rescanned the whole program) on the
// dependence construction hot path.
type loopTable struct {
	// enclosing[i] lists the DO loops strictly containing statement i,
	// outermost first.
	enclosing [][]ir.Loop
	// ctrlHeads[i] lists the SIf/SDoHead statements whose region strictly
	// contains statement i, outermost first.
	ctrlHeads [][]*ir.Stmt

	// Backing arrays a rebuild reuses: the per-statement lists slice
	// loopBuf and ctrlBuf, and end holds each DO head's ENDDO.
	loopBuf []ir.Loop
	ctrlBuf []*ir.Stmt
	end     []*ir.Stmt
}

// buildLoopTable builds p's loop table, reusing t's storage when t is not
// nil. The tables a previous build returned are overwritten.
func buildLoopTable(p *ir.Program, t *loopTable) *loopTable {
	if t == nil {
		t = &loopTable{}
	}
	n := p.Len()
	t.enclosing = slices.Grow(t.enclosing[:0], n)[:n]
	t.ctrlHeads = slices.Grow(t.ctrlHeads[:0], n)[:n]
	t.end = slices.Grow(t.end[:0], n)[:n]
	clear(t.end)
	t.loopBuf, t.ctrlBuf = t.loopBuf[:0], t.ctrlBuf[:0]

	// Pass 1: match every DO head with its ENDDO.
	var headStack []int
	for i := 0; i < n; i++ {
		switch p.At(i).Kind {
		case ir.SDoHead:
			headStack = append(headStack, i)
		case ir.SDoEnd:
			if k := len(headStack); k > 0 {
				t.end[headStack[k-1]] = p.At(i)
				headStack = headStack[:k-1]
			}
		}
	}

	// Pass 2: record the open loop and control stacks at each statement.
	// A head/end statement is not inside its own region, matching
	// ir.EnclosingLoops and the control-dependence rule. A list that
	// outgrows the buffer leaves the earlier lists on the old backing
	// array, where their contents stay valid.
	var loops []ir.Loop
	var ctrl []*ir.Stmt
	for i := 0; i < n; i++ {
		s := p.At(i)
		switch s.Kind {
		case ir.SDoEnd:
			if len(loops) > 0 {
				loops = loops[:len(loops)-1]
			}
			if len(ctrl) > 0 {
				ctrl = ctrl[:len(ctrl)-1]
			}
		case ir.SEndIf:
			if len(ctrl) > 0 {
				ctrl = ctrl[:len(ctrl)-1]
			}
		}
		lo := len(t.loopBuf)
		t.loopBuf = append(t.loopBuf, loops...)
		t.enclosing[i] = t.loopBuf[lo:len(t.loopBuf):len(t.loopBuf)]
		lo = len(t.ctrlBuf)
		t.ctrlBuf = append(t.ctrlBuf, ctrl...)
		t.ctrlHeads[i] = t.ctrlBuf[lo:len(t.ctrlBuf):len(t.ctrlBuf)]
		switch s.Kind {
		case ir.SDoHead:
			if end := t.end[i]; end != nil {
				loops = append(loops, ir.Loop{Head: s, End: end})
				ctrl = append(ctrl, s)
			}
		case ir.SIf:
			ctrl = append(ctrl, s)
		}
	}
	return t
}

// at returns the loops enclosing statement index i, outermost first.
func (t *loopTable) at(i int) []ir.Loop {
	if i < 0 || i >= len(t.enclosing) {
		return nil
	}
	return t.enclosing[i]
}

// common returns the loops enclosing both statement indices, outermost
// first. In a structured program the enclosing-loop lists of two statements
// share their common loops as a prefix.
func (t *loopTable) common(ai, bi int) []ir.Loop {
	a, b := t.at(ai), t.at(bi)
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	k := 0
	for k < n && a[k].Head == b[k].Head {
		k++
	}
	return a[:k]
}
