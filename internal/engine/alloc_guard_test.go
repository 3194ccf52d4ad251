//go:build !race

package engine_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/dep"
	"repro/internal/frontend"
	"repro/internal/specs"
)

// maxFindFirstAllocs bounds the heap allocations of one first-match search,
// whatever the number of candidates it examines: the context, the frame,
// the candidate stack's growth, the finder results (ir.Loops, loop pairs,
// the CFG and reachability buffers path() uses) and the copy of the point
// found. A search that allocated per candidate would make thousands.
const maxFindFirstAllocs = 40

// TestFindFirstAllocations guards that figure for each pass of the
// hompack-ish pipeline and of the aggregation family over aggregate.mf,
// on the program as parsed and at the pipeline's fixpoint (where every
// search examines every candidate and finds nothing). AGS evaluates
// path(Si, Sj) for its candidate pairs, so this also guards that path()
// floods the CFG into buffers reused across the search (AGS made 43
// allocations on the parsed program when each flood allocated). Race
// builds are excluded: instrumentation changes allocation counts.
func TestFindFirstAllocations(t *testing.T) {
	for _, c := range []struct {
		prog  string
		names []string
	}{
		{"hompack-ish", []string{"CTP", "CFO", "DCE", "FUS", "PAR"}},
		{"aggregate", []string{"AGG", "AGM", "AGS"}},
	} {
		raw, err := os.ReadFile(filepath.Join("..", "..", "examples", "programs", c.prog+".mf"))
		if err != nil {
			t.Fatal(err)
		}
		for _, state := range []string{"parsed", "fixpoint"} {
			p := frontend.MustParse(string(raw))
			if state == "fixpoint" {
				for _, n := range c.names {
					if _, err := specs.MustCompile(n).ApplyAll(p); err != nil {
						t.Fatal(err)
					}
				}
			}
			g := dep.Compute(p)
			for _, n := range c.names {
				o := specs.MustCompile(n)
				allocs := testing.AllocsPerRun(5, func() { o.FindFirst(p, g) })
				t.Logf("%s %s %s: %.0f allocations per findFirst", c.prog, n, state, allocs)
				if allocs > maxFindFirstAllocs {
					t.Errorf("%s on %s %s: %.0f allocations per findFirst, limit %d", n, state, c.prog, allocs, maxFindFirstAllocs)
				}
			}
		}
	}
}
