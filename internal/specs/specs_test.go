package specs

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/frontend"
	"repro/internal/gospel"
	"repro/internal/workloads"
	"repro/ir"
)

func TestAllSpecsParseCheckCompile(t *testing.T) {
	for _, name := range Names() {
		if _, err := Compile(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if len(Ten) != 10 {
		t.Errorf("the paper generated ten optimizers; Ten has %d", len(Ten))
	}
	for _, n := range Ten {
		if _, ok := Sources[n]; !ok {
			t.Errorf("Ten lists unknown spec %s", n)
		}
	}
}

func TestLoadUnknown(t *testing.T) {
	if _, err := Load("NOPE"); err == nil {
		t.Error("unknown spec must error")
	}
	if _, err := Compile("NOPE"); err == nil {
		t.Error("unknown spec must error")
	}
}

func apply(t *testing.T, name, src string, opts ...engine.Option) (*ir.Program, int) {
	t.Helper()
	p := frontend.MustParse(src)
	o := MustCompile(name, opts...)
	apps, err := o.ApplyAll(p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("%s broke structure: %v\n%s", name, err, p)
	}
	return p, len(apps)
}

func TestCTP(t *testing.T) {
	p, n := apply(t, "CTP", `
PROGRAM p
INTEGER x, y, z
x = 5
y = x + 2
z = y
END`)
	if n != 1 {
		t.Fatalf("applications = %d", n)
	}
	if got := ir.FormatStmt(p.At(1)); got != "y := 5 + 2" {
		t.Errorf("propagated = %q", got)
	}
}

func TestCTPBlockedByCarriedRedefinition(t *testing.T) {
	// x redefined inside the loop: the outside constant must not propagate
	// into the loop's use (this is the safety deviation from Figure 1).
	p, n := apply(t, "CTP", `
PROGRAM p
INTEGER i, x, y
x = 5
DO i = 1, 3
  y = x
  x = 2
ENDDO
PRINT y
END`)
	if n != 0 {
		t.Fatalf("CTP must not apply, applied %d:\n%s", n, p)
	}
}

func TestCPP(t *testing.T) {
	p, n := apply(t, "CPP", `
PROGRAM p
INTEGER x, y, z
READ y
x = y
z = x + 1
END`)
	if n != 1 {
		t.Fatalf("applications = %d\n%s", n, p)
	}
	if got := ir.FormatStmt(p.At(2)); got != "z := y + 1" {
		t.Errorf("propagated = %q", got)
	}
}

func TestCPPBlockedByRedefinitionOnPath(t *testing.T) {
	p, n := apply(t, "CPP", `
PROGRAM p
INTEGER x, y, z
READ y
x = y
y = 0
z = x + 1
END`)
	_ = p
	if n != 0 {
		t.Fatalf("CPP must be blocked by the redefinition of y, applied %d", n)
	}
}

func TestCFO(t *testing.T) {
	p, n := apply(t, "CFO", `
PROGRAM p
INTEGER x, y
x = 3 * 4
y = 10 - 4
END`)
	if n != 2 {
		t.Fatalf("applications = %d", n)
	}
	if got := ir.FormatStmt(p.At(0)); got != "x := 12" {
		t.Errorf("folded = %q", got)
	}
	if got := ir.FormatStmt(p.At(1)); got != "y := 6" {
		t.Errorf("folded = %q", got)
	}
}

func TestCTPEnablesCFO(t *testing.T) {
	// The paper's enablement observation: propagate then fold.
	p := frontend.MustParse(`
PROGRAM p
INTEGER n, m
n = 4
m = n * 2
END`)
	ctp := MustCompile("CTP")
	cfo := MustCompile("CFO")
	if _, err := ctp.ApplyAll(p); err != nil {
		t.Fatal(err)
	}
	apps, err := cfo.ApplyAll(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 1 {
		t.Fatalf("CFO after CTP = %d applications\n%s", len(apps), p)
	}
	if got := ir.FormatStmt(p.At(1)); got != "m := 8" {
		t.Errorf("result = %q", got)
	}
}

func TestDCE(t *testing.T) {
	p, n := apply(t, "DCE", `
PROGRAM p
INTEGER x, y, z
x = 1
y = 2
z = y
PRINT z
END`)
	// x is dead. (z feeds the print; y feeds z.)
	if n != 1 {
		t.Fatalf("applications = %d\n%s", n, p)
	}
	if p.Len() != 3 {
		t.Fatalf("length = %d\n%s", p.Len(), p)
	}
}

func TestDCECascades(t *testing.T) {
	// Deleting the last use of y makes y's definition dead in turn.
	p, n := apply(t, "DCE", `
PROGRAM p
INTEGER x, y
y = 2
x = y
PRINT 1
END`)
	if n != 2 {
		t.Fatalf("cascaded applications = %d\n%s", n, p)
	}
	if p.Len() != 1 {
		t.Fatalf("only the print should remain:\n%s", p)
	}
}

func TestICMHoistsInvariant(t *testing.T) {
	p, n := apply(t, "ICM", `
PROGRAM p
INTEGER i, c
REAL a(10)
DO i = 1, 10
  c = 7
  a(i) = c
ENDDO
END`)
	// c = 7 is invariant but c is used inside the loop (flow dep to
	// a(i) = c stays inside). Moving c=7 out keeps that dependence:
	// the spec forbids uses after the loop, in-loop uses are fine.
	if n != 1 {
		t.Fatalf("applications = %d\n%s", n, p)
	}
	if p.At(0).Kind != ir.SAssign || p.At(0).Dst.Name != "c" {
		t.Fatalf("not hoisted:\n%s", p)
	}
}

func TestICMBlockedByLoopVariantOperand(t *testing.T) {
	_, n := apply(t, "ICM", `
PROGRAM p
INTEGER i, c
REAL a(10)
DO i = 1, 10
  c = i + 1
  a(i) = c
ENDDO
END`)
	if n != 0 {
		t.Fatal("ICM must not hoist a statement using the LCV")
	}
}

func TestICMBlockedByConditional(t *testing.T) {
	_, n := apply(t, "ICM", `
PROGRAM p
INTEGER i, c, k
REAL a(10)
READ k
DO i = 1, 10
  IF (k > 0) THEN
    c = 7
  ENDIF
  a(i) = c
ENDDO
END`)
	if n != 0 {
		t.Fatal("ICM must not hoist a conditionally executed statement")
	}
}

func TestICMBlockedByUseAfterLoop(t *testing.T) {
	_, n := apply(t, "ICM", `
PROGRAM p
INTEGER i, c
DO i = 1, 10
  c = 7
ENDDO
PRINT c
END`)
	if n != 0 {
		t.Fatal("ICM must not hoist when the value is observed after the loop (zero-trip safety)")
	}
}

func TestINX(t *testing.T) {
	p, n := apply(t, "INX", `
PROGRAM p
INTEGER i, j
REAL a(20,20)
DO i = 1, 10
  DO j = 1, 10
    a(i,j) = a(i,j) * 2.0
  ENDDO
ENDDO
END`)
	if n != 1 {
		t.Fatalf("applications = %d", n)
	}
	loops := ir.Loops(p)
	if loops[0].LCV() != "j" || loops[1].LCV() != "i" {
		t.Fatalf("not interchanged:\n%s", p)
	}
}

func TestINXBlockedByAntiDep(t *testing.T) {
	// a(i,j) = a(i+1,j-1): anti dependence with direction (<,>).
	_, n := apply(t, "INX", `
PROGRAM p
INTEGER i, j
REAL a(20,20)
DO i = 1, 9
  DO j = 2, 10
    a(i,j) = a(i+1,j-1)
  ENDDO
ENDDO
END`)
	if n != 0 {
		t.Fatal("INX must be blocked by a (<,>) anti dependence")
	}
}

func TestCRCRotatesTripleNest(t *testing.T) {
	p, n := apply(t, "CRC", `
PROGRAM p
INTEGER i, j, k
REAL a(10,10,10)
DO i = 1, 10
  DO j = 1, 10
    DO k = 1, 10
      a(i,j,k) = a(i,j,k) + 1.0
    ENDDO
  ENDDO
ENDDO
END`)
	if n != 1 {
		t.Fatalf("applications = %d\n%s", n, p)
	}
	loops := ir.Loops(p)
	if loops[0].LCV() != "j" || loops[1].LCV() != "k" || loops[2].LCV() != "i" {
		t.Fatalf("rotation wrong: %s %s %s\n%s",
			loops[0].LCV(), loops[1].LCV(), loops[2].LCV(), p)
	}
}

func TestCRCBlockedByBackwardRotation(t *testing.T) {
	// (<,>,=) dependence: rotating makes it (>,=,<) — illegal.
	_, n := apply(t, "CRC", `
PROGRAM p
INTEGER i, j, k
REAL a(12,12,12)
DO i = 2, 10
  DO j = 1, 9
    DO k = 1, 10
      a(i,j,k) = a(i-1,j+1,k)
    ENDDO
  ENDDO
ENDDO
END`)
	if n != 0 {
		t.Fatal("CRC must be blocked by a (<,>,*) dependence")
	}
}

func TestBMPAlignsLoops(t *testing.T) {
	p, n := apply(t, "BMP", `
PROGRAM p
INTEGER i
REAL a(20), b(20)
DO i = 1, 10
  a(i) = 1.0
ENDDO
DO i = 3, 12
  b(i) = 2.0
ENDDO
END`)
	if n != 1 {
		t.Fatalf("applications = %d\n%s", n, p)
	}
	loops := ir.Loops(p)
	l2 := loops[1]
	if l2.Head.Init.Val.AsInt() != 1 || l2.Head.Final.Val.AsInt() != 10 {
		t.Fatalf("bounds not aligned: %s", ir.FormatStmt(l2.Head))
	}
	body := l2.Body(p)[0]
	if got := body.Dst.Subs[0].String(); got != "i+2" {
		t.Errorf("subscript = %q, want i+2", got)
	}
}

func TestBMPEnablesFUS(t *testing.T) {
	p := frontend.MustParse(`
PROGRAM p
INTEGER i
REAL a(20), b(20)
DO i = 1, 10
  a(i) = 1.0
ENDDO
DO i = 3, 12
  b(i) = 2.0
ENDDO
END`)
	fus := MustCompile("FUS")
	apps, _ := fus.ApplyAll(p)
	if len(apps) != 0 {
		t.Fatal("FUS must not apply before bumping")
	}
	bmp := MustCompile("BMP")
	if _, err := bmp.ApplyAll(p); err != nil {
		t.Fatal(err)
	}
	apps, err := fus.ApplyAll(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 1 {
		t.Fatalf("FUS after BMP = %d\n%s", len(apps), p)
	}
	if len(ir.Loops(p)) != 1 {
		t.Fatalf("not fused:\n%s", p)
	}
}

func TestPAR(t *testing.T) {
	p, n := apply(t, "PAR", `
PROGRAM p
INTEGER i
REAL a(10), b(10)
DO i = 1, 10
  a(i) = b(i) * 2.0
ENDDO
END`)
	if n != 1 || !p.At(0).Parallel {
		t.Fatalf("loop not parallelized (n=%d):\n%s", n, p)
	}
}

func TestPARBlockedByRecurrence(t *testing.T) {
	_, n := apply(t, "PAR", `
PROGRAM p
INTEGER i
REAL a(10)
DO i = 2, 10
  a(i) = a(i-1) + 1.0
ENDDO
END`)
	if n != 0 {
		t.Fatal("recurrence must not parallelize")
	}
}

func TestPARBlockedByReduction(t *testing.T) {
	_, n := apply(t, "PAR", `
PROGRAM p
INTEGER i
REAL a(10), s
s = 0.0
DO i = 1, 10
  s = s + a(i)
ENDDO
PRINT s
END`)
	if n != 0 {
		t.Fatal("scalar reduction must not parallelize")
	}
}

func TestPARNestedParallelizesInner(t *testing.T) {
	p, n := apply(t, "PAR", `
PROGRAM p
INTEGER i, j
REAL a(12,12)
DO i = 2, 10
  DO j = 1, 10
    a(i,j) = a(i-1,j) + 1.0
  ENDDO
ENDDO
END`)
	// Dependence (<,=) is carried by the outer loop only: the inner loop
	// parallelizes, the outer does not.
	loops := ir.Loops(p)
	if n != 1 {
		t.Fatalf("applications = %d\n%s", n, p)
	}
	if loops[0].Head.Parallel || !loops[1].Head.Parallel {
		t.Fatalf("wrong loop parallelized:\n%s", p)
	}
}

func TestLUR(t *testing.T) {
	p, n := apply(t, "LUR", `
PROGRAM p
INTEGER i
REAL a(20), b(20)
DO i = 1, 10
  a(i) = b(i) + 1.0
ENDDO
END`)
	if n != 1 {
		t.Fatalf("applications = %d", n)
	}
	l := ir.Loops(p)[0]
	if l.Head.Step.Val.AsInt() != 2 {
		t.Errorf("step = %v", l.Head.Step)
	}
	body := l.Body(p)
	if len(body) != 2 {
		t.Fatalf("body = %d\n%s", len(body), p)
	}
	if got := ir.FormatStmt(body[1]); got != "a(i+1) := b(i+1) + 1" {
		t.Errorf("replica = %q", got)
	}
}

func TestLURBlockedByVariableBound(t *testing.T) {
	_, n := apply(t, "LUR", `
PROGRAM p
INTEGER i, n
REAL a(20)
READ n
DO i = 1, n
  a(i) = 0.0
ENDDO
END`)
	if n != 0 {
		t.Fatal("variable upper bound must block LUR")
	}
}

func TestLURVariantsSameTransformation(t *testing.T) {
	src := `
PROGRAM p
INTEGER i
REAL a(20)
DO i = 1, 10
  a(i) = 1.0
ENDDO
END`
	p1 := frontend.MustParse(src)
	p2 := frontend.MustParse(src)
	if _, err := MustCompile("LUR").ApplyAll(p1); err != nil {
		t.Fatal(err)
	}
	if _, err := MustCompile("LUR_LOWERFIRST").ApplyAll(p2); err != nil {
		t.Fatal(err)
	}
	if !p1.Equal(p2) {
		t.Fatal("LUR variants must produce the same program")
	}
}

func TestFUS(t *testing.T) {
	p, n := apply(t, "FUS", `
PROGRAM p
INTEGER i
REAL a(10), b(10), c(10)
DO i = 1, 10
  a(i) = 1.0
ENDDO
DO i = 1, 10
  b(i) = a(i) + c(i)
ENDDO
END`)
	if n != 1 {
		t.Fatalf("applications = %d\n%s", n, p)
	}
	loops := ir.Loops(p)
	if len(loops) != 1 || len(loops[0].Body(p)) != 2 {
		t.Fatalf("not fused:\n%s", p)
	}
}

func TestFUSBlockedByBackwardDep(t *testing.T) {
	_, n := apply(t, "FUS", `
PROGRAM p
INTEGER i
REAL a(12), b(10)
DO i = 1, 10
  a(i) = 1.0
ENDDO
DO i = 1, 10
  b(i) = a(i+1)
ENDDO
END`)
	if n != 0 {
		t.Fatal("fusion must be blocked by a backward fused dependence")
	}
}

func TestFUSBlockedByDifferentBounds(t *testing.T) {
	_, n := apply(t, "FUS", `
PROGRAM p
INTEGER i
REAL a(10), b(12)
DO i = 1, 10
  a(i) = 1.0
ENDDO
DO i = 1, 12
  b(i) = 2.0
ENDDO
END`)
	if n != 0 {
		t.Fatal("different bounds must block fusion")
	}
}

func TestCTPEnablesLUR(t *testing.T) {
	// The paper: 41 of CTP's application points enabled LUR by making loop
	// bounds constant.
	p := frontend.MustParse(`
PROGRAM p
INTEGER i, n
REAL a(20)
n = 10
DO i = 1, n
  a(i) = 1.0
ENDDO
END`)
	lur := MustCompile("LUR")
	apps, _ := lur.ApplyAll(p)
	if len(apps) != 0 {
		t.Fatal("LUR must not apply before CTP")
	}
	ctp := MustCompile("CTP")
	if _, err := ctp.ApplyAll(p); err != nil {
		t.Fatal(err)
	}
	apps, err := lur.ApplyAll(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 1 {
		t.Fatalf("LUR after CTP = %d\n%s", len(apps), p)
	}
}

func TestCTPEnablesDCE(t *testing.T) {
	p := frontend.MustParse(`
PROGRAM p
INTEGER x, y
x = 5
y = x
PRINT y
END`)
	ctp := MustCompile("CTP")
	dce := MustCompile("DCE")
	if _, err := ctp.ApplyAll(p); err != nil {
		t.Fatal(err)
	}
	apps, err := dce.ApplyAll(p)
	if err != nil {
		t.Fatal(err)
	}
	// CTP cascades: x=5 → y=5 → print 5, leaving both definitions dead.
	if len(apps) != 2 {
		t.Fatalf("DCE after CTP = %d\n%s", len(apps), p)
	}
	if p.Len() != 1 || p.At(0).Kind != ir.SPrint {
		t.Fatalf("only the print should remain:\n%s", p)
	}
}

// TestAllSpecsFormatRoundTrip: the canonical formatter is a fixed point on
// every shipped specification, and the re-parsed specification compiles to
// an optimizer with identical behaviour.
func TestAllSpecsFormatRoundTrip(t *testing.T) {
	for _, name := range Names() {
		s1, err := Load(name)
		if err != nil {
			t.Fatal(err)
		}
		text1 := gospel.Format(s1)
		s2, err := gospel.ParseAndCheck(name, text1)
		if err != nil {
			t.Errorf("%s: formatted spec fails: %v\n%s", name, err, text1)
			continue
		}
		if text2 := gospel.Format(s2); text1 != text2 {
			t.Errorf("%s: Format is not a fixed point", name)
		}
		o2, err := engine.Compile(s2)
		if err != nil {
			t.Errorf("%s: formatted spec does not compile: %v", name, err)
			continue
		}
		for _, w := range workloads.All {
			pa := w.Program()
			if _, err := MustCompile(name).ApplyAll(pa); err != nil {
				t.Fatal(err)
			}
			pb := w.Program()
			if _, err := o2.ApplyAll(pb); err != nil {
				t.Fatal(err)
			}
			if !pa.Equal(pb) {
				t.Errorf("%s on %s: formatted spec transforms differently", name, w.Name)
			}
		}
	}
}
