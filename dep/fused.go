package dep

import (
	"slices"

	"repro/ir"
)

// FusedDirections computes the set of directions a data dependence between
// statement s (in loop l1) and statement t (in the adjacent loop l2) would
// have if the two loops were fused, identifying l2's index with l1's. It is
// the dependence test behind loop fusion: a resulting '>' direction means
// iteration i of the fused loop would consume a value that iteration j > i
// produces — fusion would change the program's meaning.
//
// Array accesses are tested with the same subscript machinery as ordinary
// dependences. Any scalar location shared between the two bodies (with at
// least one side writing it) is treated conservatively as admitting every
// direction.
func FusedDirections(p *ir.Program, s, t *ir.Stmt, l1, l2 ir.Loop) DirSet {
	var result DirSet

	// Virtual common loop: l1's LCV at level 0; l2's LCV renamed to it.
	// The fixed buffers keep a candidate test's working state off the heap.
	var lcvBuf [1]string
	var boundsBuf [1]levelBounds
	nest := newLoopNest([]ir.Loop{l1}, lcvBuf[:0], boundsBuf[:0])
	rename := func(e ir.LinExpr) ir.LinExpr {
		if l2.LCV() == l1.LCV() {
			return e
		}
		return e.Subst(l2.LCV(), ir.VarExpr(l1.LCV()))
	}

	var sBuf, tBuf [4]access
	sAcc := appendAccesses(sBuf[:0], s)
	tAcc := appendAccesses(tBuf[:0], t)
	for _, a := range sAcc {
		for _, b := range tAcc {
			if a.op.Name != b.op.Name {
				continue
			}
			if !a.isWrite && !b.isWrite {
				continue
			}
			dirs := []DirSet{DirAny}
			feasible := true
			dims := len(a.op.Subs)
			if len(b.op.Subs) < dims {
				dims = len(b.op.Subs)
			}
			for d := 0; d < dims && feasible; d++ {
				feasible = constrainDim(a.op.Subs[d], rename(b.op.Subs[d]), &nest, dirs)
			}
			if feasible {
				result |= dirs[0]
			}
		}
	}

	// Scalar conflicts: a scalar written in one body and touched in the
	// other can flow either way across fused iterations.
	sw, sok := scalarWrite(s)
	tw, tok := scalarWrite(t)
	if sok && (tok && tw == sw || slices.Contains(t.UsedVars(), sw)) {
		result |= DirAny
	}
	if tok && slices.Contains(s.UsedVars(), tw) {
		result |= DirAny
	}
	return result
}

// scalarWrite returns the scalar name s writes, if any. Loop control
// variables are never among them (body statements do not define them), so
// reading the shared index is never flagged as a conflict.
func scalarWrite(s *ir.Stmt) (string, bool) {
	if d, ok := s.Defs(); ok && !d.IsArray() {
		return d.Name, true
	}
	return "", false
}
