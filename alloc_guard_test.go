//go:build !race

package genesis

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/specs"
)

// maxHompackAllocMB bounds the bytes the interpreted CTP,CFO,DCE,FUS,PAR
// pipeline allocates per hompack-ish program. It is about 34 MB, nearly all
// of it dependence-graph construction, when the precondition search binds
// into one reusable slot frame with compact candidate tuples; about 121 MB
// when every candidate was a fresh binding map; about 157 MB when
// dependence updates spliced edges into per-statement buckets and solved
// the name-restricted dataflow in flat bit buffers; about 193 MB when each
// update re-hashes and relinks the whole edge list and allocates a bit set
// per statement per solver iteration, and about 570 MB when the
// enumeration-order heuristic also materializes the edge lists it only
// counts, liveness is computed eagerly and an edit re-runs every pair test
// of the arrays it touches.
const maxHompackAllocMB = 40

// TestHompackPipelineAllocations guards that figure. Race builds are
// excluded: the race detector's instrumentation changes allocation totals.
func TestHompackPipelineAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping the hompack-ish allocation guard")
	}
	raw, err := os.ReadFile(filepath.Join("examples", "programs", "hompack-ish.mf"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := ParseProgram(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	var passes []*engine.Optimizer
	for _, name := range []string{"CTP", "CFO", "DCE", "FUS", "PAR"} {
		passes = append(passes, specs.MustCompile(name))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, o := range passes {
		if _, err := o.ApplyAll(p); err != nil {
			t.Fatalf("%s: %v", o.Name(), err)
		}
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("hompack-ish 5-pass pipeline: %.0f MB allocated", mb)
	if mb > maxHompackAllocMB {
		t.Fatalf("hompack-ish 5-pass pipeline allocated %.0f MB, limit %d MB", mb, maxHompackAllocMB)
	}
}
