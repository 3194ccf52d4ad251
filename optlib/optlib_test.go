package optlib

import (
	"testing"

	"repro/dep"
	"repro/internal/frontend"
	"repro/ir"
)

func TestPredicates(t *testing.T) {
	p := frontend.MustParse(`
PROGRAM p
INTEGER i, x
REAL a(10)
x = 1
x = x + 2
DOALL i = 1, 10
  a(i) = 1.0
ENDDO
END`)
	copyStmt, addStmt, do := p.At(0), p.At(1), p.At(2)
	if !OpcIs(copyStmt, "assign") || !OpcIs(addStmt, "add") || OpcIs(addStmt, "assign") {
		t.Error("OpcIs broken")
	}
	if !KindIs(do, "doall") || KindIs(do, "do") || !KindIs(copyStmt, "assign") {
		t.Error("KindIs broken")
	}
	if OperandType(Opr(copyStmt, 2)) != "const" || OperandType(Opr(addStmt, 2)) != "var" {
		t.Error("OperandType broken")
	}
	if OperandType(ir.None()) != "none" {
		t.Error("none type")
	}
	if Opr(copyStmt, 9).Present() {
		t.Error("absent slot must be empty")
	}
	if !OperandEq(Opr(copyStmt, 1), ir.VarOp("x")) {
		t.Error("OperandEq broken")
	}
}

func TestVecAndDir(t *testing.T) {
	v := Vec("<", ">", "=", "*", "<=", ">=", "!=", "<>", "=>")
	want := dep.Vector{
		dep.DirLT, dep.DirGT, dep.DirEQ, dep.DirAny,
		dep.DirLT | dep.DirEQ, dep.DirGT | dep.DirEQ,
		dep.DirLT | dep.DirGT, dep.DirLT | dep.DirGT,
		dep.DirEQ | dep.DirGT,
	}
	for i := range want {
		if v[i] != want[i] {
			t.Errorf("Vec[%d] = %v, want %v", i, v[i], want[i])
		}
	}
	if Dir("<") != dep.DirLT || Dir("*") != dep.DirAny {
		t.Error("Dir broken")
	}
	// Round-trip: the String form of every DirSet parses back.
	for d := dep.DirSet(1); d <= dep.DirAny; d++ {
		if Dir(d.String()) != d {
			t.Errorf("Dir(%q) = %v, want %v", d.String(), Dir(d.String()), d)
		}
	}
}

func TestDepHelpers(t *testing.T) {
	p := frontend.MustParse(`
PROGRAM p
INTEGER i
REAL a(10), s
s = 0.0
DO i = 2, 10
  a(i) = a(i-1)
  s = s + 1.0
ENDDO
PRINT s
END`)
	g := dep.Compute(p)
	l := ir.Loops(p)[0]
	rec, red := p.At(2), p.At(3)
	if !CarriedBy(p, g, dep.Flow, rec, rec, l) {
		t.Error("recurrence must be carried by its loop")
	}
	if !IndependentDep(g, dep.Flow, p.At(0), p.At(3)) {
		t.Error("s=0 → s=s+1 is loop independent")
	}
	if IndependentDep(g, dep.Flow, rec, rec) {
		t.Error("the recurrence self-dependence is not independent")
	}
	d := g.Query(dep.Flow, red, nil, nil)
	if len(d) == 0 || UsePos(d[0]) == 0 {
		t.Error("UsePos must report the use operand")
	}
}

func TestSetHelpers(t *testing.T) {
	p := frontend.MustParse(`
PROGRAM p
INTEGER x, y, z
x = 1
y = x
z = y
END`)
	a, b, c := p.At(0), p.At(1), p.At(2)
	between := Path(p, a, c)
	if len(between) != 1 || between[0] != b {
		t.Errorf("Path = %v", between)
	}
	if !Member([]*ir.Stmt{a, b}, a) || Member([]*ir.Stmt{a}, c) {
		t.Error("Member broken")
	}
	i := Inter([]*ir.Stmt{a, b}, []*ir.Stmt{b, c})
	if len(i) != 1 || i[0] != b {
		t.Error("Inter broken")
	}
	u := Union([]*ir.Stmt{a, b}, []*ir.Stmt{b, c})
	if len(u) != 3 {
		t.Error("Union broken")
	}
}

func TestArithmeticHelpers(t *testing.T) {
	p := frontend.MustParse("PROGRAM p\nINTEGER i\nDO i = 1, 9, 2\nENDDO\nEND")
	l := ir.Loops(p)[0]
	n, ok := Trip(l)
	if !ok || n != 5 {
		t.Errorf("Trip = %d, %v", n, ok)
	}
	if _, ok := ConstInt(ir.VarOp("x")); ok {
		t.Error("ConstInt on var must fail")
	}
	s := &ir.Stmt{Kind: ir.SAssign, Dst: ir.VarOp("x"), Op: ir.OpMul, A: ir.IntOp(3), B: ir.IntOp(4)}
	v, ok := EvalStmt(s)
	if !ok || v.Val.AsInt() != 12 {
		t.Errorf("EvalStmt = %v, %v", v, ok)
	}
	if _, ok := EvalStmt(&ir.Stmt{Kind: ir.SAssign, Dst: ir.VarOp("x"), Op: ir.OpCopy, A: ir.IntOp(1)}); ok {
		t.Error("EvalStmt on copy must fail")
	}
	sum, ok := EvalArith("+", ir.IntOp(2), ir.IntOp(3))
	if !ok || sum.Val.AsInt() != 5 {
		t.Error("EvalArith + broken")
	}
	if _, ok := EvalArith("/", ir.IntOp(1), ir.IntOp(0)); ok {
		t.Error("division by zero must fail")
	}
	if _, ok := EvalArith("+", ir.VarOp("x"), ir.IntOp(1)); ok {
		t.Error("non-const must fail")
	}
}

func TestTransformHelpers(t *testing.T) {
	p := frontend.MustParse("PROGRAM p\nINTEGER x\nx = 1 + 2\nEND")
	s := p.At(0)
	if err := ModifyOperand(s, 2, ir.IntOp(9)); err != nil {
		t.Fatal(err)
	}
	if s.A.Val.AsInt() != 9 {
		t.Error("ModifyOperand broken")
	}
	if err := ModifyOperand(s, 7, ir.IntOp(1)); err == nil {
		t.Error("bad slot must fail")
	}
	if err := ModifyOpc(s, "assign"); err != nil {
		t.Fatal(err)
	}
	if s.Op != ir.OpCopy || s.B.Present() {
		t.Error("ModifyOpc assign must clear the third operand")
	}
	if err := ModifyOpc(s, "mul"); err != nil {
		t.Fatal(err)
	}
	if err := ModifyOpc(s, "zzz"); err == nil {
		t.Error("unknown literal must fail")
	}
	do := &ir.Stmt{Kind: ir.SDoHead, LCV: "i", Init: ir.IntOp(1), Final: ir.IntOp(2), Step: ir.IntOp(1)}
	if err := ModifyOpc(do, "doall"); err != nil || !do.Parallel {
		t.Error("doall flag")
	}
	if err := ModifyOpc(do, "do"); err != nil || do.Parallel {
		t.Error("do flag")
	}
	if err := ModifyOpc(s, "doall"); err == nil {
		t.Error("doall on assign must fail")
	}
}

func TestDriverAndSig(t *testing.T) {
	p := frontend.MustParse(`
PROGRAM p
INTEGER x, y
x = 3 + 4
y = 1 + 1
END`)
	// A tiny generated-style optimizer: fold one constant statement per
	// driver round.
	apply := func(pr *ir.Program, g *dep.Graph, seen map[string]bool) bool {
		for _, s := range pr.Stmts() {
			if !KindIs(s, "assign") || OpcIs(s, "assign") {
				continue
			}
			v, ok := EvalStmt(s)
			if !ok {
				continue
			}
			sig := SigN(SigStmt(s))
			if seen[sig] {
				continue
			}
			seen[sig] = true
			if err := ModifyOperand(s, 2, v); err != nil {
				continue
			}
			if err := ModifyOpc(s, "assign"); err != nil {
				continue
			}
			return true
		}
		return false
	}
	n, err := Fixpoint(p, apply, Limits{})
	if err != nil || n != 2 {
		t.Fatalf("driver applied %d, want 2\n%s", n, p)
	}
	if SigN("b", "a") != "a;b" || SigN() != "" {
		t.Error("SigN must sort")
	}
	if SigNum(3) != "3" {
		t.Error("SigNum")
	}
	l := ir.Loop{Head: &ir.Stmt{ID: 7, Kind: ir.SDoHead}}
	if SigLoop(l) != "L7" {
		t.Error("SigLoop")
	}
}
