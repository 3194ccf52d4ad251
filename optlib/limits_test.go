package optlib

import (
	"errors"
	"testing"

	"repro/dep"
	"repro/ir"
)

func limitProgram() (*ir.Program, *ir.Stmt) {
	b := ir.NewBuilder("limit")
	b.Declare("x", true)
	b.Copy(ir.VarOp("x"), ir.ConstOp(ir.FloatVal(1)))
	s := b.Assign(ir.VarOp("x"), ir.VarOp("x"), ir.OpAdd, ir.VarOp("x"))
	b.Print(ir.VarOp("x"))
	return b.P, s
}

// TestFixpointIterationLimit: an apply function that never converges must
// stop at the configured cap and report ErrIterationLimit with the count of
// applications actually made.
func TestFixpointIterationLimit(t *testing.T) {
	p, s := limitProgram()
	toggle := func(p *ir.Program, g *dep.Graph, seen map[string]bool) bool {
		lit := "sub"
		if s.Op == ir.OpSub {
			lit = "add"
		}
		if err := ModifyOpc(s, lit); err != nil {
			t.Fatal(err)
		}
		return true
	}
	n, err := Fixpoint(p, toggle, Limits{MaxIterations: 7})
	if !errors.Is(err, ErrIterationLimit) {
		t.Fatalf("Fixpoint error = %v, want ErrIterationLimit", err)
	}
	if n != 7 {
		t.Fatalf("Fixpoint made %d applications before the cap, want 7", n)
	}
}

// TestFixpointConverges: a converging apply function returns a nil error and
// the exact application count.
func TestFixpointConverges(t *testing.T) {
	p, s := limitProgram()
	left := 3
	apply := func(p *ir.Program, g *dep.Graph, seen map[string]bool) bool {
		if left == 0 {
			return false
		}
		left--
		lit := "sub"
		if s.Op == ir.OpSub {
			lit = "add"
		}
		if err := ModifyOpc(s, lit); err != nil {
			t.Fatal(err)
		}
		return true
	}
	n, err := Fixpoint(p, apply, Limits{})
	if err != nil {
		t.Fatalf("unexpected error %v", err)
	}
	if n != 3 {
		t.Fatalf("%d applications, want 3", n)
	}
	if p.Journal() != nil {
		t.Fatal("Fixpoint leaked its owned journal")
	}
}
