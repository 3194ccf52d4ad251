package engine

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/frontend"
	"repro/ir"
)

// TestValueSize guards Value's four-word layout: eval returns a Value at
// every level of its recursion, so each word added is copied there.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 32 {
		t.Errorf("engine.Value is %d bytes, limit 32: with CheckSeed over the "+
			"same 600 farm seeds, 32 bytes took 5.7-6.2 ms per program and "+
			"40 bytes 6.9-7.2 ms", n)
	}
}

// TestActionsReadOperandsTheyModify runs actions that read an operand slot
// an earlier action of the same application wrote. An operand value points
// at its slot instead of copying it, so each read must see the slot as the
// earlier actions left it. The expected programs are the outputs of the
// copying representation.
func TestActionsReadOperandsTheyModify(t *testing.T) {
	const prog = `
PROGRAM p
INTEGER x, y, z, n, i, w
REAL a(20), r
READ y
READ n
z = 4
x = y + z
w = 2 + 3
r = 1.5
DO i = 2, n, 3
  a(i) = x
ENDDO
PRINT x, z, w, r
END`
	// printed is prog as ir.ToMiniF prints it; each case's want is printed
	// with its edits applied.
	const printed = `PROGRAM p
INTEGER x, y, z, n, i, w
REAL a(20), r
READ y
READ n
z = 4
x = y + z
w = 2 + 3
r = 1.5
DO i = 2, n, 3
a(i) = x
ENDDO
PRINT x, z, w, r
END
`
	for _, c := range []struct {
		name, spec string
		edits      []string // old, new line pairs
	}{
		{
			// opr_1 is written, then read by the next modify.
			name: "dst-then-read",
			spec: `
TYPE Stmt: Si;
PRECOND
  Code_Pattern
    any Si: Si.opc == add AND type(Si.opr_2) == var AND Si.opr_1 != Si.opr_2;
ACTION
  modify(Si.opr_1, Si.opr_2);
  modify(Si.opr_3, Si.opr_1);
`,
			edits: []string{"x = y + z", "y = y + y"},
		},
		{
			// Two slots copied into each other: the second read sees the
			// first write.
			name: "swap",
			spec: `
TYPE Stmt: Si;
PRECOND
  Code_Pattern
    any Si: Si.opc == add AND type(Si.opr_2) == var AND type(Si.opr_3) == var AND Si.opr_2 != Si.opr_3;
ACTION
  modify(Si.opr_2, Si.opr_3);
  modify(Si.opr_3, Si.opr_2);
`,
			edits: []string{"x = y + z", "x = z + z"},
		},
		{
			// A slot assigned to itself, then a computed operand (eval())
			// that reads the slots written before it.
			name: "self-and-eval",
			spec: `
TYPE Stmt: Si;
PRECOND
  Code_Pattern
    any Si: Si.opc == add AND type(Si.opr_2) == const AND type(Si.opr_3) == const;
ACTION
  modify(Si.opr_2, Si.opr_2);
  modify(Si.opr_2, eval(Si));
  modify(Si.opr_3, eval(Si));
  modify(Si.opc, sub);
`,
			edits: []string{"w = 2 + 3", "w = 5 - 8"},
		},
		{
			// Loop operands: init, final and step read after one another is
			// rewritten, plus the computed L.lcv and a float literal.
			name: "loop-operands",
			spec: `
TYPE Stmt: Si; Loop: L;
PRECOND
  Code_Pattern
    any L: type(L.init) == const AND L.init != L.step;
    any Si: mem(Si, L) AND Si.opc == assign;
ACTION
  modify(L.init, L.step);
  modify(L.final, L.init);
  modify(L.step, L.final);
  modify(Si.opr_2, L.lcv);
`,
			edits: []string{"DO i = 2, n, 3", "DO i = 3, 3, 3", "a(i) = x", "a(i) = i"},
		},
		{
			name: "float-literal",
			spec: `
TYPE Stmt: Si;
PRECOND
  Code_Pattern
    any Si: Si.opc == assign AND type(Si.opr_2) == const AND Si.opr_2 != 2.5;
ACTION
  modify(Si.opr_2, 2.5);
  modify(Si.opr_1, Si.opr_1);
`,
			edits: []string{"z = 4", "z = 2.5", "r = 1.5", "r = 2.5"},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := frontend.MustParse(prog)
			o := compile(t, c.name, c.spec)
			if _, err := o.ApplyAll(p); err != nil {
				t.Fatal(err)
			}
			want := printed
			for i := 0; i < len(c.edits); i += 2 {
				want = strings.Replace(want, c.edits[i]+"\n", c.edits[i+1]+"\n", 1)
			}
			if got := ir.ToMiniF(p); got != want {
				t.Errorf("got\n%s\nwant\n%s", got, want)
			}
		})
	}
}
