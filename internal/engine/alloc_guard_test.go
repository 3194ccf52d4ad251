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

// maxFindFirstAllocs bounds the heap allocations of one first-match search
// over hompack-ish, whatever the number of candidates it examines: the
// context, the frame, the candidate stack's growth, the finder results
// (ir.Loops, loop pairs) and the copy of the point found. A search that
// allocated per candidate would make thousands.
const maxFindFirstAllocs = 40

// TestFindFirstAllocations guards that figure for each pass of the
// hompack-ish pipeline, on the program as parsed and at the pipeline's
// fixpoint (where every search examines every candidate and finds
// nothing). Race builds are excluded: instrumentation changes allocation
// counts.
func TestFindFirstAllocations(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "examples", "programs", "hompack-ish.mf"))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"CTP", "CFO", "DCE", "FUS", "PAR"}
	for _, state := range []string{"parsed", "fixpoint"} {
		p := frontend.MustParse(string(raw))
		if state == "fixpoint" {
			for _, n := range names {
				if _, err := specs.MustCompile(n).ApplyAll(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		g := dep.Compute(p)
		for _, n := range names {
			o := specs.MustCompile(n)
			allocs := testing.AllocsPerRun(5, func() { o.FindFirst(p, g) })
			t.Logf("%s %s: %.0f allocations per findFirst", n, state, allocs)
			if allocs > maxFindFirstAllocs {
				t.Errorf("%s on %s hompack-ish: %.0f allocations per findFirst, limit %d", n, state, allocs, maxFindFirstAllocs)
			}
		}
	}
}
