package engine

import (
	"fmt"
	"slices"
	"strconv"

	"repro/dep"
	"repro/internal/cfg"
	"repro/internal/gospel"
	"repro/ir"
	"repro/optlib"
)

// evalError marks a condition that cannot be evaluated (absent neighbour,
// non-constant operand in arithmetic, ...). In precondition context such a
// condition is simply false; in action context it aborts the application.
type evalError struct{ msg string }

func (e *evalError) Error() string { return e.msg }

func errf(format string, args ...interface{}) error {
	return &evalError{fmt.Sprintf(format, args...)}
}

// context is the execution state of one optimizer run over one program
// snapshot.
type context struct {
	prog  *ir.Program
	graph *dep.Graph
	flow  *cfg.Graph // full CFG, built lazily for path()
	cost  *Cost
	opt   *Optimizer
	// inPattern switches cost accounting between pattern and dependence
	// checks.
	inPattern bool
	// patternOnly stops the precondition search after the Code_Pattern
	// section, skipping Depend clauses (dependence-override mode).
	patternOnly bool
	// timed makes matchPattern accumulate the Depend section's evaluation
	// time into depNS (set by the driver when a tracer is active).
	timed bool
	// depNS accumulates nanoseconds spent in matchDepend for one search.
	depNS int64

	// Search state, reused across the searches of one run. f is the frame
	// every clause binds into. cands is the candidate stack: each Depend
	// clause pushes its candidate tuples (statements, loops and positions;
	// VNone where a candidate leaves an element unbound) above those of
	// the clauses enclosing it and pops them on return. clauses holds each
	// Depend clause's scratch (a clause is active at most once on the
	// backtracking stack).
	f        *frame
	cands    []Value
	seenCand map[candKey]struct{}
	clauses  []clauseScratch
	// searching marks the program as frozen: the loop and loop-pair
	// finders' results are cached until the search ends.
	searching bool
	loops     []ir.Loop
	loopsOK   bool
	pairs     [3][][2]ir.Loop
	pairsOK   [3]bool
	// path caches path(pathFrom, pathTo) while a search runs: AGS tests
	// path(Si, Sj) in its pattern and again in its Depend section, and a
	// use at two operand positions revisits the same pair in CPP. pathFrom
	// is nil when nothing is cached. fromA and toB are the reachability
	// vectors' reused storage; reachStack is their flood's scratch.
	pathFrom, pathTo *ir.Stmt
	path             []*ir.Stmt
	fromA, toB       []bool
	reachStack       []int

	// ops holds the computed operands (eval() results, L.lcv, float
	// literals) that operand values point at. evalBool and execAction
	// release what their evaluation added; nothing they return points
	// into it.
	ops []ir.Operand
}

// newOp stores a computed operand in the context's scratch and returns a
// value pointing at it. When the scratch grows, values made earlier keep
// pointing into the old array, which stays valid.
func (c *context) newOp(o ir.Operand) Value {
	if c.ops == nil {
		c.ops = make([]ir.Operand, 0, 4) // deep enough for the built-in specs
	}
	c.ops = append(c.ops, o)
	return opVal(&c.ops[len(c.ops)-1])
}

// beginSearch readies the context for a search of the current program.
func (c *context) beginSearch() {
	if c.f == nil {
		c.f = c.opt.plan.newFrame()
		c.clauses = make([]clauseScratch, len(c.opt.Spec.Depends))
	} else {
		clear(c.f.vals)
	}
	c.flow = nil
	c.depNS = 0
	c.cands = c.cands[:0]
	c.ops = c.ops[:0]
	c.pathFrom, c.pathTo, c.path = nil, nil, nil
	c.searching = true
}

// endSearch drops the finder caches: actions may now edit the program.
func (c *context) endSearch() {
	c.searching = false
	c.loopsOK = false
	c.pairsOK = [3]bool{}
	c.pathFrom, c.pathTo, c.path = nil, nil, nil
}

// loopList returns ir.Loops of the program, cached while a search runs.
func (c *context) loopList() []ir.Loop {
	if !c.searching {
		return ir.Loops(c.prog)
	}
	if !c.loopsOK {
		c.loops, c.loopsOK = ir.Loops(c.prog), true
	}
	return c.loops
}

// pairList returns the loop pairs of a pairwise element kind, cached while
// a search runs.
func (c *context) pairList(kind gospel.ElemKind) [][2]ir.Loop {
	var i int
	var find func(*ir.Program) [][2]ir.Loop
	switch kind {
	case gospel.KNestedLoops:
		i, find = 0, ir.NestedPairs
	case gospel.KTightLoops:
		i, find = 1, ir.TightPairs
	case gospel.KAdjacentLoops:
		i, find = 2, ir.AdjacentPairs
	default:
		return nil
	}
	if !c.pairsOK[i] {
		c.pairs[i], c.pairsOK[i] = find(c.prog), true
	}
	return c.pairs[i]
}

func (c *context) countCheck() {
	if c.inPattern {
		c.cost.PatternChecks++
	} else {
		c.cost.DepChecks++
	}
}

func (c *context) cfgFull() *cfg.Graph {
	if c.flow == nil {
		c.flow = cfg.Build(c.prog)
	}
	return c.flow
}

// evalBool evaluates a boolean precondition expression. Unevaluable
// conditions are false.
func (c *context) evalBool(f *frame, e gospel.Expr) bool {
	mark := len(c.ops)
	v, err := c.eval(f, e)
	c.ops = c.ops[:mark]
	return err == nil && v.Bool()
}

// eval evaluates any GOSpeL expression to a runtime value.
func (c *context) eval(f *frame, e gospel.Expr) (Value, error) {
	switch e := e.(type) {
	case gospel.Num:
		if n, err := strconv.ParseInt(e.Text, 10, 64); err == nil {
			return numVal(n), nil
		}
		x, err := strconv.ParseFloat(e.Text, 64)
		if err != nil {
			return Value{}, errf("bad number %q", e.Text)
		}
		return c.newOp(ir.ConstOp(ir.FloatVal(x))), nil
	case gospel.Lit:
		return litVal(e.Name), nil
	case gospel.Ident:
		if v, ok := f.lookup(e.Name); ok {
			return v, nil
		}
		if isLiteralName(e.Name) {
			return litVal(e.Name), nil
		}
		return Value{}, errf("unbound name %s", e.Name)
	case gospel.Attr:
		return c.evalAttr(f, e)
	case gospel.Call:
		return c.evalCall(f, e)
	case gospel.Not:
		v, err := c.eval(f, e.E)
		if err != nil {
			return Value{}, err
		}
		return boolVal(!v.Bool()), nil
	case gospel.Binary:
		return c.evalBinary(f, e)
	}
	return Value{}, errf("unevaluable expression %s", e)
}

var literalNames = map[string]bool{
	"const": true, "var": true, "array": true,
	"assign": true, "sub": true, "mul": true, "div": true,
	"enddo": true, "if": true, "else": true, "endif": true,
	"print": true, "read": true, "doall": true,
	// "add", "mod", "do", "end" arrive as gospel.Lit via value position.
}

func isLiteralName(n string) bool { return literalNames[n] }

func (c *context) evalAttr(f *frame, e gospel.Attr) (Value, error) {
	base, err := c.eval(f, e.Base)
	if err != nil {
		return Value{}, err
	}
	switch base.Kind {
	case VStmt:
		s := base.Stmt
		if s == nil {
			return Value{}, errf("attribute %s of absent statement", e.Name)
		}
		switch e.Name {
		case "opr_1", "opr_2", "opr_3":
			slot := int(e.Name[len(e.Name)-1] - '0')
			op := s.OperandSlot(slot)
			if op == nil {
				op = &noneOp
			}
			return opVal(op), nil
		case "opc":
			return litVal(opcName(s)), nil
		case "kind":
			return litVal(kindName(s)), nil
		case "next":
			return stmtVal(c.prog.Next(s)), nil
		case "prev":
			return stmtVal(c.prog.Prev(s)), nil
		}
		return Value{}, errf("statement attribute %q", e.Name)
	case VLoop:
		l := base.Loop()
		// head/end remain addressable while actions dismantle the loop
		// (fusion deletes the head before the end); the structural
		// attributes below require the loop to still be intact.
		switch e.Name {
		case "head":
			if c.prog.Index(l.Head) < 0 {
				return Value{}, errf("loop head no longer in program")
			}
			return stmtVal(l.Head), nil
		case "end":
			if c.prog.Index(l.End) < 0 {
				return Value{}, errf("loop end no longer in program")
			}
			return stmtVal(l.End), nil
		}
		if !l.Valid(c.prog) {
			return Value{}, errf("stale loop binding")
		}
		switch e.Name {
		case "body":
			return setVal(l.Body(c.prog)), nil
		case "lcv":
			return c.newOp(ir.VarOp(l.LCV())), nil
		case "init":
			return opVal(&l.Head.Init), nil
		case "final":
			return opVal(&l.Head.Final), nil
		case "step":
			return opVal(&l.Head.Step), nil
		case "opc", "kind":
			return litVal(kindName(l.Head)), nil
		case "next", "prev":
			return c.loopNeighbour(l, e.Name == "next")
		}
		return Value{}, errf("loop attribute %q", e.Name)
	}
	return Value{}, errf("%s values have no attributes", base)
}

func (c *context) loopNeighbour(l ir.Loop, next bool) (Value, error) {
	loops := ir.Loops(c.prog)
	for i, cand := range loops {
		if cand.Head == l.Head {
			j := i - 1
			if next {
				j = i + 1
			}
			if j < 0 || j >= len(loops) {
				return Value{}, errf("no %s loop", map[bool]string{true: "next", false: "previous"}[next])
			}
			return loopVal(loops[j]), nil
		}
	}
	return Value{}, errf("stale loop binding")
}

// opcName maps a statement to its GOSpeL opc literal.
func opcName(s *ir.Stmt) string {
	if s.Kind != ir.SAssign {
		return kindName(s)
	}
	switch s.Op {
	case ir.OpCopy:
		return "assign"
	case ir.OpAdd:
		return "add"
	case ir.OpSub:
		return "sub"
	case ir.OpMul:
		return "mul"
	case ir.OpDiv:
		return "div"
	case ir.OpMod:
		return "mod"
	}
	return "?"
}

// kindName maps a statement to its GOSpeL kind literal.
func kindName(s *ir.Stmt) string {
	switch s.Kind {
	case ir.SAssign:
		return "assign"
	case ir.SDoHead:
		if s.Parallel {
			return "doall"
		}
		return "do"
	case ir.SDoEnd:
		return "enddo"
	case ir.SIf:
		return "if"
	case ir.SElse:
		return "else"
	case ir.SEndIf:
		return "endif"
	case ir.SPrint:
		return "print"
	case ir.SRead:
		return "read"
	}
	return "?"
}

func operandTypeName(o *ir.Operand) string {
	switch o.Kind {
	case ir.Const:
		return "const"
	case ir.Var:
		return "var"
	case ir.ArrayRef:
		return "array"
	}
	return "none"
}

func (c *context) evalCall(f *frame, e gospel.Call) (Value, error) {
	switch e.Fn {
	case "flow_dep", "anti_dep", "out_dep", "ctrl_dep":
		return c.evalDepPred(f, e)
	case "fused_dep":
		return c.evalFusedDep(f, e)
	case "mem", "nmem":
		c.cost.MemChecks++
		sv, err := c.eval(f, e.Args[0])
		if err != nil {
			return Value{}, err
		}
		setv, err := c.eval(f, e.Args[1])
		if err != nil {
			return Value{}, err
		}
		var s *ir.Stmt
		if sv.Kind == VStmt {
			s = sv.Stmt
		}
		var in bool
		if l := setv.Loop(); setv.Kind == VLoop && l.Valid(c.prog) {
			in = l.Contains(c.prog, s) // a position test
		} else {
			set, err := c.asSet(setv)
			if err != nil {
				return Value{}, err
			}
			in = slices.Contains(set, s)
		}
		if e.Fn == "nmem" {
			in = !in
		}
		return boolVal(in), nil
	case "path":
		set, err := c.pathSet(f, e)
		if err != nil {
			return Value{}, err
		}
		return setVal(set), nil
	case "inter", "union":
		a, err := c.evalSet(f, e.Args[0])
		if err != nil {
			return Value{}, err
		}
		b, err := c.evalSet(f, e.Args[1])
		if err != nil {
			return Value{}, err
		}
		if e.Fn == "inter" {
			inB := map[*ir.Stmt]bool{}
			for _, s := range b {
				inB[s] = true
			}
			var out []*ir.Stmt
			for _, s := range a {
				if inB[s] {
					out = append(out, s)
				}
			}
			return setVal(out), nil
		}
		seen := map[*ir.Stmt]bool{}
		var out []*ir.Stmt
		for _, s := range append(append([]*ir.Stmt{}, a...), b...) {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
		return setVal(out), nil
	case "operand":
		sv, err := c.eval(f, e.Args[0])
		if err != nil {
			return Value{}, err
		}
		pv, err := c.eval(f, e.Args[1])
		if err != nil {
			return Value{}, err
		}
		if sv.Kind != VStmt || sv.Stmt == nil {
			return Value{}, errf("operand() needs a statement")
		}
		var pos int64
		if pv.Kind == VNum {
			pos = pv.Num
		}
		op := sv.Stmt.OperandSlot(int(pos))
		if op == nil {
			return Value{}, errf("statement S%d has no operand %d", sv.Stmt.ID, pos)
		}
		return opVal(op), nil
	case "type":
		ov, err := c.eval(f, e.Args[0])
		if err != nil {
			return Value{}, err
		}
		if ov.Kind != VOperand {
			return Value{}, errf("type() needs an operand")
		}
		return litVal(operandTypeName(ov.Op())), nil
	case "itype":
		ov, err := c.eval(f, e.Args[0])
		if err != nil {
			return Value{}, err
		}
		if ov.Kind != VOperand {
			return Value{}, errf("itype() needs an operand")
		}
		return boolVal(optlib.IntTyped(c.prog, *ov.Op())), nil
	case "trip":
		lv, err := c.eval(f, e.Args[0])
		if err != nil {
			return Value{}, err
		}
		if lv.Kind != VLoop || !lv.Loop().Valid(c.prog) {
			return Value{}, errf("trip() needs a loop")
		}
		h := lv.Stmt
		if !h.Init.IsConst() || !h.Final.IsConst() || !h.Step.IsConst() {
			return Value{}, errf("trip() needs constant bounds")
		}
		step := h.Step.Val.AsInt()
		if step == 0 {
			return Value{}, errf("zero loop step")
		}
		n := (h.Final.Val.AsInt()-h.Init.Val.AsInt())/step + 1
		if n < 0 {
			n = 0
		}
		return numVal(n), nil
	case "eval":
		return c.evalEval(f, e.Args[0])
	case "subst":
		ov, err := c.eval(f, e.Args[0])
		if err != nil {
			return Value{}, err
		}
		if ov.Kind != VOperand || !ov.Op().IsVar() {
			return Value{}, errf("subst target must be a scalar variable operand")
		}
		repl, err := c.linearize(f, e.Args[1])
		if err != nil {
			return Value{}, err
		}
		return substVal(&SubstVal{Var: ov.Op().Name, Repl: repl}), nil
	}
	return Value{}, errf("unknown function %q", e.Fn)
}

// evalDepPred evaluates a fully-bound dependence predicate.
func (c *context) evalDepPred(f *frame, e gospel.Call) (Value, error) {
	c.cost.DepChecks++
	kind := depKindOf(e.Fn)
	src, err := c.eval(f, e.Args[0])
	if err != nil {
		return Value{}, err
	}
	dst, err := c.eval(f, e.Args[1])
	if err != nil {
		return Value{}, err
	}
	if src.Kind != VStmt || dst.Kind != VStmt || src.Stmt == nil || dst.Stmt == nil {
		return Value{}, errf("%s needs two statements", e.Fn)
	}
	if e.CarriedBy != "" {
		lv, ok := f.lookup(e.CarriedBy)
		if !ok || lv.Kind != VLoop {
			return Value{}, errf("carried(%s): not a bound loop", e.CarriedBy)
		}
		level := c.loopLevel(src.Stmt, dst.Stmt, lv.Loop())
		if level == 0 {
			return boolVal(false), nil
		}
		found := false
		c.graph.Visit(kind, src.Stmt, dst.Stmt, nil, func(d *dep.Dependence) {
			found = found || d.Carried && d.Level == level
		})
		return boolVal(found), nil
	}
	if e.Independent {
		found := false
		c.graph.Visit(kind, src.Stmt, dst.Stmt, nil, func(d *dep.Dependence) {
			found = found || !d.Carried
		})
		return boolVal(found), nil
	}
	return boolVal(c.graph.Exists(kind, src.Stmt, dst.Stmt, e.Dir)), nil
}

// loopLevel returns the 1-based level of loop l among the common loops of
// s and t (ir.CommonLoops, outermost first), or 0 when l is not common to
// both.
func (c *context) loopLevel(s, t *ir.Stmt, l ir.Loop) int {
	level := 0
	for _, cl := range c.loopList() {
		if cl.Contains(c.prog, s) && cl.Contains(c.prog, t) {
			level++
			if cl.Head == l.Head {
				return level
			}
		}
	}
	return 0
}

func depKindOf(fn string) dep.Kind {
	switch fn {
	case "flow_dep":
		return dep.Flow
	case "anti_dep":
		return dep.Anti
	case "out_dep":
		return dep.Output
	case "ctrl_dep":
		return dep.Control
	}
	panic("engine: bad dep predicate " + fn)
}

func (c *context) evalFusedDep(f *frame, e gospel.Call) (Value, error) {
	c.cost.DepChecks++
	sm, err := c.eval(f, e.Args[0])
	if err != nil {
		return Value{}, err
	}
	sn, err := c.eval(f, e.Args[1])
	if err != nil {
		return Value{}, err
	}
	l1, err := c.eval(f, e.Args[2])
	if err != nil {
		return Value{}, err
	}
	l2, err := c.eval(f, e.Args[3])
	if err != nil {
		return Value{}, err
	}
	if sm.Kind != VStmt || sn.Kind != VStmt || l1.Kind != VLoop || l2.Kind != VLoop {
		return Value{}, errf("fused_dep needs (Stmt, Stmt, Loop, Loop)")
	}
	dirs := dep.FusedDirections(c.prog, sm.Stmt, sn.Stmt, l1.Loop(), l2.Loop())
	want := dep.DirAny
	if len(e.Dir) > 0 {
		want = e.Dir[0]
	}
	return boolVal(dirs.Intersect(want) != 0), nil
}

func (c *context) pathSet(f *frame, e gospel.Call) ([]*ir.Stmt, error) {
	av, err := c.eval(f, e.Args[0])
	if err != nil {
		return nil, err
	}
	bv, err := c.eval(f, e.Args[1])
	if err != nil {
		return nil, err
	}
	if av.Kind != VStmt || bv.Kind != VStmt || av.Stmt == nil || bv.Stmt == nil {
		return nil, errf("path() needs two statements")
	}
	if c.searching && c.pathFrom == av.Stmt && c.pathTo == bv.Stmt {
		return c.path, nil
	}
	g := c.cfgFull()
	ai, bi := c.prog.Index(av.Stmt), c.prog.Index(bv.Stmt)
	c.fromA, c.reachStack = g.ReachInto(ai, true, c.fromA, c.reachStack)
	c.toB, c.reachStack = g.ReachInto(bi, false, c.toB, c.reachStack)
	fromA, toB := c.fromA, c.toB
	var out []*ir.Stmt
	for i := 0; i < c.prog.Len(); i++ {
		if i == ai || i == bi {
			continue
		}
		if fromA[i] && toB[i] {
			out = append(out, c.prog.At(i))
		}
	}
	if c.searching {
		c.pathFrom, c.pathTo, c.path = av.Stmt, bv.Stmt, out
	}
	return out, nil
}

// evalSet evaluates a set expression: a loop (its body), an attribute
// yielding a set, path(...), inter/union, or an `all`-bound variable.
func (c *context) evalSet(f *frame, e gospel.Expr) ([]*ir.Stmt, error) {
	v, err := c.eval(f, e)
	if err != nil {
		return nil, err
	}
	return c.asSet(v)
}

// asSet converts an evaluated set expression to its statements. A loop's
// body is a capacity-capped window of the program's statement list, so it
// must be used (or copied) before the program changes.
func (c *context) asSet(v Value) ([]*ir.Stmt, error) {
	switch v.Kind {
	case VSet:
		return v.Set(), nil
	case VLoop:
		l := v.Loop()
		if !l.Valid(c.prog) {
			return nil, errf("stale loop binding in set expression")
		}
		hi, ei := c.prog.Index(l.Head), c.prog.Index(l.End)
		return c.prog.Stmts()[hi+1 : ei : ei], nil
	}
	return nil, errf("%s is not a set", v)
}

// evalEval implements eval(x): arithmetic over constant operands, or the
// constant folding of a whole statement's right-hand side.
func (c *context) evalEval(f *frame, arg gospel.Expr) (Value, error) {
	v, err := c.eval(f, arg)
	if err != nil {
		return Value{}, err
	}
	switch v.Kind {
	case VStmt:
		s := v.Stmt
		if s == nil || s.Kind != ir.SAssign || s.Op == ir.OpCopy {
			return Value{}, errf("eval() of a statement needs a binary assignment")
		}
		if !s.A.IsConst() || !s.B.IsConst() {
			return Value{}, errf("eval() needs constant operands")
		}
		return c.newOp(ir.ConstOp(ir.Arith(s.Op, s.A.Val, s.B.Val))), nil
	case VNum:
		return c.newOp(ir.IntOp(v.Num)), nil
	case VOperand:
		if !v.Op().IsConst() {
			return Value{}, errf("eval() needs a constant operand")
		}
		return v, nil
	}
	return Value{}, errf("eval() cannot evaluate %s", v)
}

// numeric extracts an integer from a numeric value or constant operand.
func numeric(v Value) (int64, error) {
	switch v.Kind {
	case VNum:
		return v.Num, nil
	case VOperand:
		if op := v.Op(); op.IsConst() {
			return op.Val.AsInt(), nil
		}
	}
	return 0, errf("%s is not numeric", v)
}

func (c *context) evalBinary(f *frame, e gospel.Binary) (Value, error) {
	switch e.Op {
	case "and":
		l, err := c.eval(f, e.L)
		if err != nil || l.Kind != VBool {
			return boolVal(false), err
		}
		if !l.Bool() {
			return boolVal(false), nil
		}
		r, err := c.eval(f, e.R)
		if err != nil || r.Kind != VBool {
			return boolVal(false), err
		}
		return r, nil
	case "or":
		l, err := c.eval(f, e.L)
		if err == nil && l.Bool() {
			return boolVal(true), nil
		}
		r, err := c.eval(f, e.R)
		if err != nil {
			return boolVal(false), nil
		}
		return boolVal(r.Bool()), nil
	case "+", "-", "*", "/", "mod":
		l, err := c.eval(f, e.L)
		if err != nil {
			return Value{}, err
		}
		r, err := c.eval(f, e.R)
		if err != nil {
			return Value{}, err
		}
		ln, err := numeric(l)
		if err != nil {
			return Value{}, err
		}
		rn, err := numeric(r)
		if err != nil {
			return Value{}, err
		}
		switch e.Op {
		case "+":
			return numVal(ln + rn), nil
		case "-":
			return numVal(ln - rn), nil
		case "*":
			return numVal(ln * rn), nil
		case "/":
			if rn == 0 {
				return Value{}, errf("division by zero")
			}
			return numVal(ln / rn), nil
		default:
			if rn == 0 {
				return Value{}, errf("mod by zero")
			}
			return numVal(ln % rn), nil
		}
	}
	// Relational comparison.
	c.countCheck()
	l, err := c.eval(f, e.L)
	if err != nil {
		return Value{}, err
	}
	r, err := c.eval(f, e.R)
	if err != nil {
		return Value{}, err
	}
	res, err := c.compareValues(e.Op, l, r)
	if err != nil {
		return Value{}, err
	}
	return boolVal(res), nil
}

func (c *context) compareValues(op string, l, r Value) (bool, error) {
	// Statement identity and program order (the BNF's StmtId relop StmtId:
	// <, <= etc. compare positions in the program).
	if l.Kind == VStmt && r.Kind == VStmt {
		switch op {
		case "==":
			return l.Stmt == r.Stmt, nil
		case "!=":
			return l.Stmt != r.Stmt, nil
		}
		li, ri := c.prog.Index(l.Stmt), c.prog.Index(r.Stmt)
		if li < 0 || ri < 0 {
			return false, errf("program-order comparison of absent statements")
		}
		switch op {
		case "<":
			return li < ri, nil
		case "<=":
			return li <= ri, nil
		case ">":
			return li > ri, nil
		case ">=":
			return li >= ri, nil
		}
		return false, errf("unknown statement comparison %q", op)
	}
	// Literal comparison (opc, kind, operand type).
	if l.Kind == VLit || r.Kind == VLit {
		ls, rs := l.Lit(), r.Lit()
		if l.Kind != VLit || r.Kind != VLit {
			return false, errf("cannot compare %s with %s", l, r)
		}
		switch op {
		case "==":
			return ls == rs, nil
		case "!=":
			return ls != rs, nil
		}
		return false, errf("literals only compare with == or !=")
	}
	// Operand structural comparison for ==/!= on non-constant operands.
	if lo, ro := l.Op(), r.Op(); l.Kind == VOperand && r.Kind == VOperand &&
		(!lo.IsConst() || !ro.IsConst()) {
		switch op {
		case "==":
			return lo.Equal(*ro), nil
		case "!=":
			return !lo.Equal(*ro), nil
		}
		return false, errf("non-constant operands only compare with == or !=")
	}
	// Numeric comparison.
	ln, err := numeric(l)
	if err != nil {
		return false, err
	}
	rn, err := numeric(r)
	if err != nil {
		return false, err
	}
	switch op {
	case "==":
		return ln == rn, nil
	case "!=":
		return ln != rn, nil
	case "<":
		return ln < rn, nil
	case "<=":
		return ln <= rn, nil
	case ">":
		return ln > rn, nil
	case ">=":
		return ln >= rn, nil
	}
	return false, errf("unknown comparison %q", op)
}

// linearize converts an arithmetic GOSpeL expression over variables and
// constants into an affine ir.LinExpr (for subst replacements).
func (c *context) linearize(f *frame, e gospel.Expr) (ir.LinExpr, error) {
	switch e := e.(type) {
	case gospel.Num:
		n, err := strconv.ParseInt(e.Text, 10, 64)
		if err != nil {
			return ir.LinExpr{}, errf("non-integer in substitution: %s", e.Text)
		}
		return ir.ConstExpr(n), nil
	case gospel.Binary:
		l, lerr := c.linearize(f, e.L)
		r, rerr := c.linearize(f, e.R)
		switch e.Op {
		case "+":
			if lerr == nil && rerr == nil {
				return l.Add(r), nil
			}
		case "-":
			if lerr == nil && rerr == nil {
				return l.Sub(r), nil
			}
		case "*":
			if lerr == nil && rerr == nil {
				if l.IsConst() {
					return r.Scale(l.Normalize().Const), nil
				}
				if r.IsConst() {
					return l.Scale(r.Normalize().Const), nil
				}
			}
		}
		return ir.LinExpr{}, errf("non-affine substitution expression")
	default:
		v, err := c.eval(f, e)
		if err != nil {
			return ir.LinExpr{}, err
		}
		if op := v.Op(); v.Kind == VOperand {
			switch {
			case op.IsVar():
				return ir.VarExpr(op.Name), nil
			case op.IsConst() && !op.Val.IsFloat:
				return ir.ConstExpr(op.Val.Int), nil
			}
		}
		if v.Kind == VNum {
			return ir.ConstExpr(v.Num), nil
		}
		return ir.LinExpr{}, errf("cannot linearize %s", v)
	}
}
