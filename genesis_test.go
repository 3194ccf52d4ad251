package genesis

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/ir"
)

const sampleProgram = `
PROGRAM sample
INTEGER n, i
REAL a(16), s
n = 16
s = 0.0
DO i = 1, n
  a(i) = i * 2.0
ENDDO
DO i = 1, 16
  s = s + a(i)
ENDDO
PRINT s
END
`

func TestParseProgramAndExecute(t *testing.T) {
	p, err := ParseProgram(sampleProgram)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Execute(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].AsFloat() != 272 { // 2·(1+…+16)
		t.Fatalf("output = %v", out)
	}
}

func TestBuiltInLifecycle(t *testing.T) {
	p, err := ParseProgram(sampleProgram)
	if err != nil {
		t.Fatal(err)
	}
	o, err := BuiltIn("CTP")
	if err != nil {
		t.Fatal(err)
	}
	if o.Name() != "CTP" {
		t.Errorf("name = %q", o.Name())
	}
	if pts := o.Points(p); pts != 1 {
		t.Errorf("points = %d (n feeds one loop bound)", pts)
	}
	n, err := o.ApplyAll(p)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("applications = %d", n)
	}
	if o.Cost().Total() == 0 {
		t.Error("cost counters empty")
	}
	o.ResetCost()
	if o.Cost().Total() != 0 {
		t.Error("ResetCost failed")
	}
	if _, err := BuiltIn("XYZ"); err == nil {
		t.Error("unknown built-in must error")
	}
}

func TestOptimizePipelinePreservesOutput(t *testing.T) {
	orig, _ := ParseProgram(sampleProgram)
	want, err := Execute(orig, nil)
	if err != nil {
		t.Fatal(err)
	}
	// FUS must run before LUR: unrolling desynchronizes the loop headers
	// and disables fusion (the paper's Section 4 interaction).
	p, counts, err := Optimize(sampleProgram, "CTP", "CFO", "DCE", "FUS", "LUR", "PAR")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Execute(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].AsFloat() != want[0].AsFloat() {
		t.Fatalf("pipeline changed output: %v vs %v\n%s", got, want, p)
	}
	if counts["CTP"] == 0 {
		t.Error("CTP should have applied")
	}
	if counts["FUS"] == 0 {
		t.Errorf("FUS should have fused the two loops (counts=%v)\n%s", counts, p)
	}
}

func TestParseSpecCompileApply(t *testing.T) {
	// A custom optimization written against the public API: strength
	// reduction of multiplication by two into an addition.
	src := `
TYPE
  Stmt: Si;
PRECOND
  Code_Pattern
    any Si: Si.opc == mul AND type(Si.opr_2) == var AND (Si.opr_3 == 2);
  Depend
ACTION
  modify(Si.opc, add);
  modify(Si.opr_3, Si.opr_2);
`
	spec, err := ParseSpec("SRD", src)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name() != "SRD" {
		t.Error("spec name")
	}
	o, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	p, _ := ParseProgram("PROGRAM p\nINTEGER x, y\nREAD y\nx = y * 2\nEND")
	n, err := o.ApplyAll(p)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("applications = %d\n%s", n, p)
	}
	if got := ir.FormatStmt(p.At(1)); got != "x := y + y" {
		t.Errorf("strength-reduced = %q", got)
	}
}

func TestGenerateGo(t *testing.T) {
	spec, err := ParseSpec("CTP", mustSource(t, "CTP"))
	if err != nil {
		t.Fatal(err)
	}
	src, err := spec.GenerateGo("main", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"package main", "applyCTP", "optlib.Main"} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
}

func mustSource(t *testing.T, name string) string {
	t.Helper()
	src, err := BuiltInSource(name)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestBuiltInNamesAndTen(t *testing.T) {
	if len(TenOptimizations()) != 10 {
		t.Error("ten optimizations")
	}
	names := BuiltInNames()
	if len(names) < 11 {
		t.Errorf("built-ins = %v", names)
	}
	for _, n := range TenOptimizations() {
		if _, err := BuiltInSource(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if _, err := BuiltInSource("XYZ"); err == nil {
		t.Error("unknown source must error")
	}
}

func TestStrategyOptions(t *testing.T) {
	for _, s := range []Strategy{Heuristic, MembersFirst, DepsFirst} {
		o, err := BuiltIn("INX", WithStrategy(s))
		if err != nil {
			t.Fatal(err)
		}
		p, _ := ParseProgram(`
PROGRAM p
INTEGER i, j
REAL a(20,20)
DO i = 1, 10
  DO j = 1, 10
    a(i,j) = 0.0
  ENDDO
ENDDO
END`)
		applied, err := o.ApplyOnce(p)
		if err != nil {
			t.Fatal(err)
		}
		if !applied {
			t.Errorf("strategy %v: INX should apply", s)
		}
	}
	if _, err := BuiltIn("CTP", WithoutRecompute()); err != nil {
		t.Fatal(err)
	}
}

func TestDependencesAccessor(t *testing.T) {
	p, _ := ParseProgram("PROGRAM p\nINTEGER x, y\nx = 1\ny = x\nEND")
	g := Dependences(p)
	if len(g.Deps()) == 0 {
		t.Error("dependence graph empty")
	}
}

func TestRunExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var b strings.Builder
	if err := RunExperiments(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "E4") {
		t.Error("experiment output incomplete")
	}
}

// withoutRecomputeOpt adapts the public option for the ablation bench,
// which lives in this package.
func withoutRecomputeOpt() []engine.Option {
	return []engine.Option{engine.WithoutRecompute()}
}
