// Customopt: the paper's central promise — "a user can create and easily
// implement novel optimizations" — as a runnable example. Two optimizations
// that ship with no compiler here are written in GOSpeL from scratch,
// compiled with the generator, and applied:
//
//   - SRD, strength reduction: x := y * 2 becomes x := y + y;
//   - IDE, identity elimination: x := y + 0 becomes x := y.
//
// The example also emits the generated Go source for SRD, the artifact the
// paper's GENesis would hand back (its Fig. 6, but in Go).
//
//	go run ./examples/customopt
package main

import (
	"fmt"
	"log"
	"strings"

	"repro"
)

const srd = `
TYPE
  Stmt: Si;
PRECOND
  Code_Pattern
    /* a multiplication of a scalar by the constant 2 */
    any Si: Si.opc == mul AND type(Si.opr_2) == var AND (Si.opr_3 == 2);
  Depend
ACTION
  modify(Si.opc, add);
  modify(Si.opr_3, Si.opr_2);
`

const ide = `
TYPE
  Stmt: Si;
PRECOND
  Code_Pattern
    /* an addition of zero */
    any Si: Si.opc == add AND (Si.opr_3 == 0);
  Depend
ACTION
  modify(Si.opc, assign);
`

const program = `
PROGRAM demo
INTEGER x, y, z
READ y
x = y * 2
z = x + 0
PRINT x, z
END
`

func main() {
	p, err := genesis.ParseProgram(program)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("before:")
	fmt.Print(p.String())

	// A fixed pass order: SRD first, then IDE over its result.
	for _, pass := range []struct{ name, src string }{{"SRD", srd}, {"IDE", ide}} {
		name := pass.name
		spec, err := genesis.ParseSpec(name, pass.src)
		if err != nil {
			log.Fatal(err)
		}
		o, err := spec.Compile()
		if err != nil {
			log.Fatal(err)
		}
		n, err := o.ApplyAll(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s: %d application(s)\n", name, n)
	}
	fmt.Println("\nafter:")
	fmt.Print(p.String())

	// The generator's other output: standalone Go source for the new
	// optimization.
	spec, _ := genesis.ParseSpec("SRD", srd)
	code, err := spec.GenerateGo("main", true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ngenerated optimizer (first lines):")
	lines := strings.SplitN(code, "\n", 12)
	fmt.Println(strings.Join(lines[:11], "\n"))
	fmt.Println("...")
}
