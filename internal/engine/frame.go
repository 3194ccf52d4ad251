package engine

import (
	"bytes"
	"slices"
	"strconv"

	"repro/dep"
	"repro/internal/gospel"
)

// plan is the slot layout Compile derives from a specification — the
// generated code's element table (set_up_xxx). Every element, position
// and action-bound name gets one slot; a search binds and unbinds slots
// of a single frame in place instead of copying environments.
type plan struct {
	names []string
	// kind and declared describe each slot's name: declared elements are
	// enumerated as statements or loops, undeclared clause names are
	// position variables bound from dependence edges.
	kind     []gospel.ElemKind
	declared []bool
	// pat[i] and dep[i] are the slots of pattern / Depend clause i's
	// elements, in clause order.
	pat [][]int
	dep []depPlan
}

// depPlan is the static part of one Depend clause.
type depPlan struct {
	elems []int
	// preds lists the clause condition's dependence predicates in
	// evaluation-walk order, with the slots of plain-name arguments.
	preds []depPred
	// mems lists the clause's mem(X, set) qualifications in walk order.
	mems []memQual
	// complete holds the element slots for which dependence edges are a
	// complete candidate generator (see depComplete).
	complete []int
}

// memQual is one mem(X, set) qualification of a clause's Sets section.
type memQual struct {
	slot int // X's slot, -1 when X is not a plain name
	set  gospel.Expr
}

// depPred is one dependence predicate of a clause condition.
type depPred struct {
	call     gospel.Call
	kind     dep.Kind
	src, dst int // slot of the first/second argument when a plain name, else -1
}

// newPlan lays out the slots of spec.
func newPlan(spec *gospel.Spec) *plan {
	pl := &plan{}
	slot := func(name string) int {
		if i := slices.Index(pl.names, name); i >= 0 {
			return i
		}
		kind, declared := spec.DeclKind(name)
		pl.names = append(pl.names, name)
		pl.kind = append(pl.kind, kind)
		pl.declared = append(pl.declared, declared)
		return len(pl.names) - 1
	}
	for _, td := range spec.Types {
		for _, it := range td.Items {
			for _, n := range it.Names {
				slot(n)
			}
		}
	}
	for _, pc := range spec.Patterns {
		var s []int
		for _, n := range pc.Elems {
			s = append(s, slot(n))
		}
		pl.pat = append(pl.pat, s)
	}
	for _, dc := range spec.Depends {
		var dp depPlan
		for _, n := range dc.Elems {
			dp.elems = append(dp.elems, slot(n))
			if dc.Conds != nil && depComplete(dc.Conds, n) {
				dp.complete = append(dp.complete, slot(n))
			}
		}
		argSlot := func(e gospel.Expr) int {
			if id, ok := e.(gospel.Ident); ok {
				return slices.Index(pl.names, id.Name)
			}
			return -1
		}
		var mems func(e gospel.Expr)
		mems = func(e gospel.Expr) {
			switch e := e.(type) {
			case gospel.Binary:
				mems(e.L)
				mems(e.R)
			case gospel.Call:
				if e.Fn == "mem" && len(e.Args) == 2 {
					dp.mems = append(dp.mems, memQual{slot: argSlot(e.Args[0]), set: e.Args[1]})
				}
			}
		}
		if dc.Sets != nil {
			mems(dc.Sets)
		}
		var walk func(e gospel.Expr)
		walk = func(e gospel.Expr) {
			switch e := e.(type) {
			case gospel.Binary:
				walk(e.L)
				walk(e.R)
			case gospel.Not:
				walk(e.E)
			case gospel.Call:
				kind, ok := depPredName(e.Fn)
				if !ok {
					return
				}
				p := depPred{call: e, kind: kind, src: -1, dst: -1}
				if len(e.Args) >= 2 {
					p.src, p.dst = argSlot(e.Args[0]), argSlot(e.Args[1])
				}
				dp.preds = append(dp.preds, p)
			}
		}
		if dc.Conds != nil {
			walk(dc.Conds)
		}
		pl.dep = append(pl.dep, dp)
	}
	var actions func(as []gospel.Action)
	actions = func(as []gospel.Action) {
		for _, a := range as {
			switch a := a.(type) {
			case gospel.CopyAction:
				slot(a.Name)
			case gospel.AddAction:
				slot(a.Name)
			case gospel.ForallAction:
				slot(a.Var)
				actions(a.Body)
			}
		}
	}
	actions(spec.Actions)
	return pl
}

// frame is the binding table of one search or one application: vals[i]
// holds the value bound to names[i], with Kind VNone while unbound.
type frame struct {
	names []string
	vals  []Value
}

func (pl *plan) newFrame() *frame {
	return &frame{names: pl.names, vals: make([]Value, len(pl.names))}
}

func (f *frame) bound(slot int) bool { return f.vals[slot].Kind != VNone }

func (f *frame) unbind(slots []int) {
	for _, s := range slots {
		f.vals[s] = Value{}
	}
}

// lookup returns the value bound to name.
func (f *frame) lookup(name string) (Value, bool) {
	for i, n := range f.names {
		if n == name {
			v := f.vals[i]
			return v, v.Kind != VNone
		}
	}
	return Value{}, false
}

// set binds name, adding a slot for a name the layout lacks.
func (f *frame) set(name string, v Value) {
	if i := slices.Index(f.names, name); i >= 0 {
		f.vals[i] = v
		return
	}
	f.names = append(f.names[:len(f.names):len(f.names)], name)
	f.vals = append(f.vals, v)
}

// env converts the bound slots to the public Env.
func (f *frame) env() Env {
	e := make(Env, len(f.vals))
	for i, v := range f.vals {
		if v.Kind != VNone {
			e[f.names[i]] = v
		}
	}
	return e
}

// copyFrom makes f an independent copy of src, reusing f's storage.
func (f *frame) copyFrom(src *frame) {
	f.names = src.names
	f.vals = append(f.vals[:0], src.vals...)
}

// frameOf binds env into a fresh frame of o's layout (names env holds
// beyond the layout get slots of their own).
func (o *Optimizer) frameOf(env Env) *frame {
	f := o.plan.newFrame()
	for n, v := range env {
		f.set(n, v)
	}
	return f
}

// maxKeyElems bounds the clause width the hashed de-duplication handles;
// wider candidate tuples fall back to pairwise comparison.
const maxKeyElems = 4

// candKey is a candidate tuple as a map key. Slot order is part of the key,
// so (Sm=S3, Sn=S4) and (Sm=S4, Sn=S3) stay distinct candidates.
type candKey [maxKeyElems]Value

// tuple returns candidate i of the n-wide tuples starting at base.
func (c *context) tuple(base, i, n int) []Value {
	return c.cands[base+i*n : base+(i+1)*n]
}

// push appends a copy of src (or a tuple of n unbound values when src is
// nil) to the candidate stack and returns it.
func (c *context) push(src []Value, n int) []Value {
	l := len(c.cands)
	c.cands = slices.Grow(c.cands, n)[:l+n]
	t := c.cands[l:]
	if src != nil {
		copy(t, src)
	} else {
		clear(t)
	}
	return t
}

// settle moves the tuples built from top down to base, dropping the
// generation they were derived from, and returns their count.
func (c *context) settle(base, top, width int) int {
	n := copy(c.cands[base:], c.cands[top:])
	c.cands = c.cands[:base+n]
	return n / width
}

// dedup drops repeated tuples among the n starting at base, keeping first
// occurrences in order, and returns the remaining count.
func (c *context) dedup(base, n, width int) int {
	if n < 2 {
		return n
	}
	out := 0
	hashed := width <= maxKeyElems && n > 8
	if hashed {
		if c.seenCand == nil {
			c.seenCand = map[candKey]struct{}{}
		}
		clear(c.seenCand)
	}
	for i := 0; i < n; i++ {
		t := c.tuple(base, i, width)
		dup := false
		if hashed {
			var k candKey
			copy(k[:], t)
			_, dup = c.seenCand[k]
			c.seenCand[k] = struct{}{}
		} else {
			for j := 0; j < out && !dup; j++ {
				dup = slices.Equal(c.tuple(base, j, width), t)
			}
		}
		if !dup {
			copy(c.tuple(base, out, width), t)
			out++
		}
	}
	c.cands = c.cands[:base+out*width]
	return out
}

// bindTuple binds the values a candidate holds into their slots.
func (c *context) bindTuple(slots []int, t []Value) {
	for j, s := range slots {
		if t[j].Kind != VNone {
			c.f.vals[s] = t[j]
		}
	}
}

// sigScratch is the reusable buffer space of appendSignature.
type sigScratch struct {
	buf   []byte
	spans [][2]int
	ids   []int
}

// appendSignature renders an application point as a stable string over
// the *set* of bound values (statement IDs, loop head IDs, positions),
// ignoring which element variable holds which value. Using the value set
// rather than the (name, value) bindings makes self-inverse transformations
// converge: after a loop interchange the re-discovered point binds the same
// two loops with the roles swapped, which is the same application point.
func appendSignature(dst []byte, vals []Value, sc *sigScratch) []byte {
	sc.buf, sc.spans = sc.buf[:0], sc.spans[:0]
	for _, v := range vals {
		start := len(sc.buf)
		switch v.Kind {
		case VStmt:
			if v.Stmt == nil {
				continue
			}
			sc.buf = strconv.AppendInt(append(sc.buf, 'S'), int64(v.Stmt.ID), 10)
		case VLoop:
			if v.Stmt == nil {
				continue
			}
			sc.buf = strconv.AppendInt(append(sc.buf, 'L'), int64(v.Stmt.ID), 10)
		case VNum:
			sc.buf = strconv.AppendInt(sc.buf, v.Num, 10)
		case VSet:
			// The sorted member IDs: two distinct sets of equal size must
			// not collide, or the second point is skipped as already seen.
			sc.ids = sc.ids[:0]
			for _, s := range v.Set() {
				if s != nil {
					sc.ids = append(sc.ids, s.ID)
				}
			}
			slices.Sort(sc.ids)
			sc.buf = append(sc.buf, "set{"...)
			for i, id := range sc.ids {
				if i > 0 {
					sc.buf = append(sc.buf, ',')
				}
				sc.buf = strconv.AppendInt(append(sc.buf, 'S'), int64(id), 10)
			}
			sc.buf = append(sc.buf, '}')
		default:
			continue
		}
		sc.spans = append(sc.spans, [2]int{start, len(sc.buf)})
	}
	slices.SortFunc(sc.spans, func(a, b [2]int) int {
		return bytes.Compare(sc.buf[a[0]:a[1]], sc.buf[b[0]:b[1]])
	})
	for i, sp := range sc.spans {
		if i > 0 {
			dst = append(dst, ';')
		}
		dst = append(dst, sc.buf[sp[0]:sp[1]]...)
	}
	return dst
}
