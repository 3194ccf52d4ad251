package engine

import (
	"strings"
	"testing"

	"repro/dep"
	"repro/internal/frontend"
	"repro/internal/gospel"
	"repro/ir"
)

// evalCtx builds a context over a program for direct expression tests.
func evalCtx(t *testing.T, src string) (*context, *ir.Program) {
	t.Helper()
	p := frontend.MustParse(src)
	o := &Optimizer{Spec: &gospel.Spec{Name: "T"}}
	o.plan = newPlan(o.Spec)
	return o.newContext(p, dep.Compute(p)), p
}

// bind binds env into a frame of the context's layout.
func bind(ctx *context, env Env) *frame { return ctx.opt.frameOf(env) }

func parseExpr(t *testing.T, src string) gospel.Expr {
	t.Helper()
	// Wrap the expression in a minimal spec and pull the format back out.
	spec, err := gospel.Parse("TYPE Stmt: S0; PRECOND Code_Pattern any S0: " + src + "; ACTION delete(S0);")
	if err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	return spec.Patterns[0].Format
}

func TestEvalAttributes(t *testing.T) {
	ctx, p := evalCtx(t, `
PROGRAM p
INTEGER i, x
REAL a(10)
x = 1
DO i = 1, 10, 2
  a(i) = x * 2
ENDDO
PRINT x
END`)
	loops := ir.Loops(p)
	env := Env{"L": loopVal(loops[0]), "S": stmtVal(p.At(0))}

	cases := []struct {
		expr string
		want string
	}{
		{"L.lcv", "i"},
		{"L.init", "1"},
		{"L.final", "10"},
		{"L.step", "2"},
		{"S.opr_1", "x"},
		{"S.opr_2", "1"},
		{"S.opc", "assign"},
		{"S.kind", "assign"},
	}
	for _, c := range cases {
		v, err := ctx.eval(bind(ctx, env), parseExpr(t, c.expr+" == "+c.expr).(gospel.Binary).L)
		if err != nil {
			t.Errorf("%s: %v", c.expr, err)
			continue
		}
		if v.String() != c.want {
			t.Errorf("%s = %s, want %s", c.expr, v, c.want)
		}
	}

	// next/prev navigation.
	next, err := ctx.eval(bind(ctx, env), parseExpr(t, "S.next == S.next").(gospel.Binary).L)
	if err != nil || next.Stmt != p.At(1) {
		t.Errorf("S.next = %v, %v", next, err)
	}
	if _, err := ctx.eval(bind(ctx, env), parseExpr(t, "S.prev == S.prev").(gospel.Binary).L); err != nil {
		// S is the first statement: prev is nil but not an error.
		t.Errorf("S.prev: %v", err)
	}
	// head/end of the loop.
	head, err := ctx.eval(bind(ctx, env), parseExpr(t, "L.head == L.head").(gospel.Binary).L)
	if err != nil || head.Stmt != loops[0].Head {
		t.Errorf("L.head = %v, %v", head, err)
	}
	// Unknown attribute errors.
	if _, err := ctx.eval(bind(ctx, env), gospel.Attr{Base: gospel.Ident{Name: "S"}, Name: "zzz"}); err == nil {
		t.Error("unknown statement attribute must error")
	}
	if _, err := ctx.eval(bind(ctx, env), gospel.Attr{Base: gospel.Ident{Name: "L"}, Name: "zzz"}); err == nil {
		t.Error("unknown loop attribute must error")
	}
}

func TestEvalLoopNeighbour(t *testing.T) {
	ctx, p := evalCtx(t, `
PROGRAM p
INTEGER i
REAL a(10)
DO i = 1, 5
  a(i) = 1.0
ENDDO
DO i = 1, 5
  a(i) = 2.0
ENDDO
END`)
	loops := ir.Loops(p)
	env := Env{"L1": loopVal(loops[0]), "L2": loopVal(loops[1])}
	v, err := ctx.eval(bind(ctx, env), gospel.Attr{Base: gospel.Ident{Name: "L1"}, Name: "next"})
	if err != nil || v.Kind != VLoop || v.Loop().Head != loops[1].Head {
		t.Errorf("L1.next = %v, %v", v, err)
	}
	v, err = ctx.eval(bind(ctx, env), gospel.Attr{Base: gospel.Ident{Name: "L2"}, Name: "prev"})
	if err != nil || v.Loop().Head != loops[0].Head {
		t.Errorf("L2.prev = %v, %v", v, err)
	}
	if _, err := ctx.eval(bind(ctx, env), gospel.Attr{Base: gospel.Ident{Name: "L1"}, Name: "prev"}); err == nil {
		t.Error("no previous loop: must error")
	}
	if _, err := ctx.eval(bind(ctx, env), gospel.Attr{Base: gospel.Ident{Name: "L2"}, Name: "next"}); err == nil {
		t.Error("no next loop: must error")
	}
}

func TestCompareValuesBranches(t *testing.T) {
	ctx, p := evalCtx(t, "PROGRAM p\nINTEGER x\nx = 1\nx = 2\nEND")
	a, b := p.At(0), p.At(1)

	ok, err := ctx.compareValues("<", stmtVal(a), stmtVal(b))
	if err != nil || !ok {
		t.Errorf("program-order <: %v %v", ok, err)
	}
	ok, err = ctx.compareValues(">=", stmtVal(b), stmtVal(a))
	if err != nil || !ok {
		t.Errorf("program-order >=: %v %v", ok, err)
	}
	if _, err := ctx.compareValues("<", stmtVal(&ir.Stmt{}), stmtVal(a)); err == nil {
		t.Error("order comparison of foreign statement must error")
	}
	// Literal comparisons.
	ok, _ = ctx.compareValues("==", litVal("add"), litVal("add"))
	if !ok {
		t.Error("literal equality")
	}
	if _, err := ctx.compareValues("<", litVal("add"), litVal("mul")); err == nil {
		t.Error("literal relational must error")
	}
	if _, err := ctx.compareValues("==", litVal("add"), numVal(3)); err == nil {
		t.Error("literal vs number must error")
	}
	// Operand structural comparison.
	ok, _ = ctx.compareValues("!=", ctx.newOp(ir.VarOp("x")), ctx.newOp(ir.VarOp("y")))
	if !ok {
		t.Error("operand inequality")
	}
	// Numeric comparisons through operands.
	ok, _ = ctx.compareValues("<=", ctx.newOp(ir.IntOp(3)), numVal(3))
	if !ok {
		t.Error("const operand vs num")
	}
	if _, err := ctx.compareValues("<", ctx.newOp(ir.VarOp("x")), numVal(3)); err == nil {
		t.Error("non-const operand relational must error")
	}
}

func TestPathSetThroughEval(t *testing.T) {
	ctx, p := evalCtx(t, `
PROGRAM p
INTEGER x, y, z
x = 1
y = 2
z = 3
END`)
	env := Env{"A": stmtVal(p.At(0)), "B": stmtVal(p.At(2))}
	spec, err := gospel.Parse(`
TYPE Stmt: A, B, M;
PRECOND Code_Pattern any A; any B;
Depend any M: mem(M, path(A, B));
ACTION delete(M);`)
	if err != nil {
		t.Fatal(err)
	}
	cond := spec.Depends[0].Sets
	env["M"] = stmtVal(p.At(1))
	v, err := ctx.eval(bind(ctx, env), cond)
	if err != nil || !v.Bool() {
		t.Errorf("middle statement must be on the path: %v %v", v, err)
	}
	env["M"] = stmtVal(p.At(0))
	v, _ = ctx.eval(bind(ctx, env), cond)
	if v.Bool() {
		t.Error("endpoints are excluded from path()")
	}
}

func TestSetOperations(t *testing.T) {
	ctx, p := evalCtx(t, `
PROGRAM p
INTEGER i
REAL a(10)
DO i = 1, 5
  a(i) = 1.0
ENDDO
DO i = 1, 5
  a(i) = 2.0
ENDDO
END`)
	loops := ir.Loops(p)
	env := Env{"L1": loopVal(loops[0]), "L2": loopVal(loops[1]), "S": stmtVal(loops[0].Body(p)[0])}
	spec, err := gospel.Parse(`
TYPE Stmt: S; Loop: L1, L2;
PRECOND Code_Pattern any L1; any L2; any S;
Depend
  any S: mem(S, union(L1.body, L2.body)) AND nmem(S, inter(L1.body, L2.body));
ACTION delete(S);`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ctx.eval(bind(ctx, env), spec.Depends[0].Sets)
	if err != nil || !v.Bool() {
		t.Errorf("union/inter/nmem: %v %v", v, err)
	}
}

func TestValueAndCostStrings(t *testing.T) {
	vals := []Value{
		stmtVal(&ir.Stmt{ID: 3}),
		stmtVal(nil),
		loopVal(ir.Loop{Head: &ir.Stmt{Kind: ir.SDoHead, LCV: "i"}}),
		setVal([]*ir.Stmt{nil, nil}),
		opVal(&ir.Operand{Kind: ir.Var, Name: "x"}),
		numVal(7),
		boolVal(true),
		litVal("add"),
		substVal(&SubstVal{Var: "i", Repl: ir.VarExpr("i")}),
		{},
	}
	for _, v := range vals {
		if v.String() == "" {
			t.Errorf("empty String for %#v", v)
		}
	}
	c := Cost{PatternChecks: 1, DepChecks: 2, MemChecks: 3, ActionOps: 4}
	var sum Cost
	sum.Add(c)
	sum.Add(c)
	if sum.Checks() != 12 || sum.Total() != 20 {
		t.Errorf("cost arithmetic: %+v", sum)
	}
	if !strings.Contains(c.String(), "pattern=1") {
		t.Error("Cost.String")
	}
	for _, s := range []Strategy{StrategyHeuristic, StrategyMembers, StrategyDeps, Strategy(99)} {
		if s.String() == "" {
			t.Error("Strategy.String")
		}
	}
}

func TestOptimizerNameAndOptions(t *testing.T) {
	spec, err := gospel.ParseAndCheck("X", `
TYPE Stmt: S;
PRECOND Code_Pattern any S: S.opc == assign;
Depend
ACTION modify(S.opr_2, 1);`)
	if err != nil {
		t.Fatal(err)
	}
	o, err := Compile(spec, WithoutRecompute(), WithStrategy(StrategyDeps))
	if err != nil {
		t.Fatal(err)
	}
	if o.Name() != "X" {
		t.Error("Name")
	}
	if o.RecomputeDeps {
		t.Error("WithoutRecompute not applied")
	}
	if o.Strategy != StrategyDeps {
		t.Error("WithStrategy not applied")
	}
}

func TestSetOpcVariants(t *testing.T) {
	s := &ir.Stmt{Kind: ir.SAssign, Dst: ir.VarOp("x"), Op: ir.OpAdd, A: ir.IntOp(1), B: ir.IntOp(2)}
	for _, lit := range []string{"add", "sub", "mul", "div", "mod", "assign"} {
		if err := setOpc(s, lit); err != nil {
			t.Errorf("%s: %v", lit, err)
		}
	}
	if err := setOpc(s, "doall"); err == nil {
		t.Error("doall on assignment must fail")
	}
	do := &ir.Stmt{Kind: ir.SDoHead}
	if err := setOpc(do, "assign"); err == nil {
		t.Error("assign on loop header must fail")
	}
	if err := setOpc(do, "doall"); err != nil || !do.Parallel {
		t.Error("doall flag")
	}
	if err := setOpc(do, "do"); err != nil || do.Parallel {
		t.Error("do flag")
	}
	if err := setOpc(do, "nonsense"); err == nil {
		t.Error("unknown literal must fail")
	}
}

func TestEvalEvalForms(t *testing.T) {
	ctx, p := evalCtx(t, "PROGRAM p\nINTEGER x\nx = 3 * 4\nx = x\nEND")
	fold, err := ctx.evalEval(bind(ctx, Env{"S": stmtVal(p.At(0))}), gospel.Ident{Name: "S"})
	if err != nil || fold.Op().Val.AsInt() != 12 {
		t.Errorf("eval(S) = %v, %v", fold, err)
	}
	if _, err := ctx.evalEval(bind(ctx, Env{"S": stmtVal(p.At(1))}), gospel.Ident{Name: "S"}); err == nil {
		t.Error("eval of a copy must fail")
	}
	v, err := ctx.evalEval(bind(ctx, Env{}), gospel.Num{Text: "5"})
	if err != nil || v.Op().Val.AsInt() != 5 {
		t.Errorf("eval(5) = %v, %v", v, err)
	}
}

func TestApplyOnceNoMatchReturnsFalse(t *testing.T) {
	spec, err := gospel.ParseAndCheck("NOPE", `
TYPE Stmt: S;
PRECOND Code_Pattern any S: S.kind == read;
Depend
ACTION delete(S);`)
	if err != nil {
		t.Fatal(err)
	}
	o, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := frontend.MustParse("PROGRAM p\nINTEGER x\nx = 1\nEND")
	applied, err := o.ApplyOnce(p)
	if err != nil || applied {
		t.Errorf("no READ statements: %v %v", applied, err)
	}
}
