package dep

import (
	"testing"

	"repro/internal/frontend"
	"repro/ir"
)

// The tests in this file exercise the refined subscript machinery: the
// Banerjee interval test, weak-zero SIV, and their interaction with the
// direction-vector construction.

func TestBanerjeeDisprovesOutOfRangeDistance(t *testing.T) {
	// a(i) vs a(i+20) with i ∈ [1,10]: the distance exceeds the span.
	p := frontend.MustParse(`
PROGRAM p
INTEGER i
REAL a(40)
DO i = 1, 10
  a(i) = a(i+20)
ENDDO
END`)
	g := Compute(p)
	for _, d := range g.Deps() {
		if d.Var == "a" {
			t.Errorf("Banerjee should disprove: %v", d)
		}
	}
}

func TestBanerjeeKeepsInRangeDistance(t *testing.T) {
	p := frontend.MustParse(`
PROGRAM p
INTEGER i
REAL a(40)
DO i = 1, 10
  a(i) = a(i+5)
ENDDO
END`)
	g := Compute(p)
	found := false
	for _, d := range g.Deps() {
		if d.Var == "a" && d.Kind == Anti && d.Carried {
			found = true
		}
	}
	if !found {
		t.Fatalf("in-range distance must stay dependent: %v", g.Deps())
	}
}

func TestBanerjeeSkipsVariableBounds(t *testing.T) {
	// Variable bounds: the interval is unbounded; the dependence must be
	// assumed.
	p := frontend.MustParse(`
PROGRAM p
INTEGER i, n
REAL a(40)
READ n
DO i = 1, n
  a(i) = a(i+20)
ENDDO
END`)
	g := Compute(p)
	found := false
	for _, d := range g.Deps() {
		if d.Var == "a" {
			found = true
		}
	}
	if !found {
		t.Fatal("variable bounds must be conservative")
	}
}

func TestWeakZeroSIVDivisibility(t *testing.T) {
	// a(2*i) vs a(5): 5 is odd — the store never hits it.
	p := frontend.MustParse(`
PROGRAM p
INTEGER i
REAL a(20), x
DO i = 1, 10
  a(2*i) = 1.0
  x = a(5)
ENDDO
PRINT x
END`)
	g := Compute(p)
	for _, d := range g.Deps() {
		if d.Var == "a" {
			t.Errorf("weak-zero SIV should disprove: %v", d)
		}
	}
}

func TestWeakZeroSIVInRange(t *testing.T) {
	// a(2*i) vs a(6): i = 3 is inside [1,10] — dependent.
	p := frontend.MustParse(`
PROGRAM p
INTEGER i
REAL a(20), x
DO i = 1, 10
  a(2*i) = 1.0
  x = a(6)
ENDDO
PRINT x
END`)
	g := Compute(p)
	found := false
	for _, d := range g.Deps() {
		if d.Var == "a" && d.Kind == Flow {
			found = true
		}
	}
	if !found {
		t.Fatalf("a(2*i) does hit a(6): %v", g.Deps())
	}
}

func TestWeakZeroSIVOutOfRange(t *testing.T) {
	// a(i) vs a(15) with i ∈ [1,10]: the constant is out of reach.
	p := frontend.MustParse(`
PROGRAM p
INTEGER i
REAL a(20), x
DO i = 1, 10
  a(i) = 1.0
  x = a(15)
ENDDO
PRINT x
END`)
	g := Compute(p)
	for _, d := range g.Deps() {
		if d.Var == "a" {
			t.Errorf("out-of-range constant should disprove: %v", d)
		}
	}
}

func TestBanerjeeEnablesParallelization(t *testing.T) {
	// The refined tests have a visible client effect: a(i) = a(i+20) is
	// parallelizable once the dependence is disproved.
	p := frontend.MustParse(`
PROGRAM p
INTEGER i
REAL a(40)
DO i = 1, 10
  a(i) = a(i+20) * 2.0
ENDDO
END`)
	g := Compute(p)
	l := ir.Loops(p)[0]
	for _, d := range g.From(l.Body(p)[0]) {
		if d.Carried {
			t.Fatalf("no carried dependence expected: %v", d)
		}
	}
}

func TestLoopBoundsExtraction(t *testing.T) {
	p := frontend.MustParse(`
PROGRAM p
INTEGER i, j, n
READ n
DO i = 3, 9
  DO j = 1, n
    a = 0.0
  ENDDO
ENDDO
END`)
	nest := newLoopNest(ir.Loops(p), nil, nil)
	if got := nest.bounds[0]; got != (levelBounds{lo: 3, hi: 9, ok: true}) {
		t.Errorf("bounds[i] = %+v", got)
	}
	if nest.bounds[1].ok {
		t.Error("variable-bound loop must have no extracted bounds")
	}
}

func TestDownwardLoopBounds(t *testing.T) {
	// Downward loop: bounds normalize to [lo, hi].
	p := frontend.MustParse(`
PROGRAM p
INTEGER i
REAL a(40)
DO i = 10, 1, -1
  a(i) = a(i+20)
ENDDO
END`)
	g := Compute(p)
	for _, d := range g.Deps() {
		if d.Var == "a" {
			t.Errorf("Banerjee should disprove for downward loops too: %v", d)
		}
	}
}
