package dep

import "repro/ir"

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
	nest := newLoopNest([]ir.Loop{l1}, nil, nil)
	rename := func(e ir.LinExpr) ir.LinExpr {
		if l2.LCV() == l1.LCV() {
			return e
		}
		return e.Subst(l2.LCV(), ir.VarExpr(l1.LCV()))
	}

	sAcc := appendAccesses(nil, s)
	tAcc := appendAccesses(nil, t)
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
	sw, sr := scalarAccesses(s)
	tw, tr := scalarAccesses(t)
	for v := range sw {
		if tw[v] || tr[v] {
			result |= DirAny
		}
	}
	for v := range tw {
		if sr[v] {
			result |= DirAny
		}
	}
	return result
}

// scalarAccesses returns the scalar names written and read by s. Loop
// control variables only appear in the read sets (body statements do not
// define them), so reading the shared index is never flagged as a conflict.
func scalarAccesses(s *ir.Stmt) (writes, reads map[string]bool) {
	writes = map[string]bool{}
	reads = map[string]bool{}
	if d, ok := s.Defs(); ok && !d.IsArray() {
		writes[d.Name] = true
	}
	for _, v := range s.UsedVars() {
		reads[v] = true
	}
	return writes, reads
}
