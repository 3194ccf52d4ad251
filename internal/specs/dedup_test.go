package specs

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
)

// carriedBackward builds a loop whose only carried dependence runs
// backwards through the body: b(i) = a(i-1) reads the a(i) the next
// statement wrote one iteration earlier (flow_dep(S4, S3, (<))), while
// b(i) flows forward within the iteration (flow_dep(S3, S4, (=))). The
// two edges join the same statements in swapped roles. filler adds
// independent statements after them, which tips the heuristic to the
// deps-first order.
func carriedBackward(filler int) string {
	var b strings.Builder
	b.WriteString("PROGRAM p\nINTEGER i\nREAL a(20), b(20)")
	for k := 0; k < filler; k++ {
		fmt.Fprintf(&b, ", c%d(20)", k)
	}
	b.WriteString("\nDO i = 2, 10\n  b(i) = a(i-1)\n  a(i) = b(i)\n")
	for k := 0; k < filler; k++ {
		fmt.Fprintf(&b, "  c%d(i) = %d\n", k, k+1)
	}
	b.WriteString("ENDDO\nPRINT a(10), b(10)\nEND\n")
	return b.String()
}

// TestCarriedWitnessInSwappedRoles guards the Depend search's candidate
// de-duplication: (Sm=S4, Sn=S3) is a different candidate from
// (Sm=S3, Sn=S4), so the backward carried dependence must block PAR and
// LRV under every enumeration strategy. Keyed on the value set alone, the
// witness collapsed into the forward edge's candidate and the loop was
// marked DOALL.
func TestCarriedWitnessInSwappedRoles(t *testing.T) {
	strategies := []engine.Strategy{engine.StrategyHeuristic, engine.StrategyMembers, engine.StrategyDeps}
	for _, filler := range []int{0, 6} {
		for _, name := range []string{"PAR", "LRV"} {
			for _, s := range strategies {
				_, n := apply(t, name, carriedBackward(filler), engine.WithStrategy(s))
				if n != 0 {
					t.Errorf("%s %s, %d filler statements: applied %d time(s) despite a carried dependence",
						name, s, filler, n)
				}
			}
		}
	}
}
