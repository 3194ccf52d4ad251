//go:build !race

package genesis

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/farm"
	"repro/internal/specs"
)

// maxHompackAllocMB bounds the bytes the interpreted CTP,CFO,DCE,FUS,PAR
// pipeline allocates per hompack-ish program. It is about 6.9 MB when each
// dataflow fact family is one flat word slice (no per-statement set headers)
// and a full build sizes its edge buckets by a counting pass; about 8.0 MB
// when the edge store is a chunked arena, so each pass's dep.Compute
// allocates every edge chunk once, and the array pair tests' grouping state
// is reused from the graph's scratch; about 19 MB, most of it the pending
// edges of each pass's dep.Compute grown by append, when a full build adopts
// its pending buffer as the edge arena, runs its analysis in the graph's
// reusable dataflow workspace and the workspace rebuilds its CFGs in place;
// about 34 MB, nearly all of it dependence-graph construction, when the
// precondition search binds into one reusable slot frame with compact
// candidate tuples and each build copied its edges into an arena grown by
// appending; about 121 MB when every candidate was a fresh binding map;
// about 157 MB when dependence updates spliced edges into per-statement
// buckets and solved the name-restricted dataflow in flat bit buffers; about
// 193 MB when each update re-hashes and relinks the whole edge list and
// allocates a bit set per statement per solver iteration, and about 570 MB
// when the enumeration-order heuristic also materializes the edge lists it
// only counts, liveness is computed eagerly and an edit re-runs every pair
// test of the arrays it touches.
const maxHompackAllocMB = 7.9

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
	t.Logf("hompack-ish 5-pass pipeline: %.1f MB allocated", mb)
	if mb > maxHompackAllocMB {
		t.Fatalf("hompack-ish 5-pass pipeline allocated %.1f MB, limit %.1f MB", mb, maxHompackAllocMB)
	}
}

// maxFarmAllocMB bounds the bytes farm.Checker.CheckSeed allocates per
// aggregation-profile program (the default order under both default
// variants, plus the reference and variant interpretations). It is about
// 0.52 MB when dataflow fact families are flat word slices and a full
// build sizes its edge buckets by a counting pass, about 0.56 MB when the
// dependence edge store is a chunked arena and the array
// pair tests reuse their grouping state, about 0.64 MB when edge sorts
// compare packed position keys and a full build adopts its pending buffer
// as the edge arena, about 0.87 MB when each variant
// carries one maintained dependence graph through its passes, and about
// 2.95 MB when every pass computed a fresh graph.
const maxFarmAllocMB = 0.60

// TestFarmCheckSeedAllocations guards that figure over the first 100 seeds
// of the rand.NewSource(1) stream, the corpus the farm benchmark draws.
func TestFarmCheckSeedAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping the farm allocation guard")
	}
	ch, err := farm.NewChecker(farm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	r := rand.New(rand.NewSource(1))
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = r.Int63()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, seed := range seeds {
		if _, divs, err := ch.CheckSeed(context.Background(), "aggregation", seed, 0); err != nil || len(divs) > 0 {
			t.Fatalf("seed %d: err %v, %d divergence(s)", seed, err, len(divs))
		}
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / n
	t.Logf("farm CheckSeed: %.2f MB allocated per program", mb)
	if mb > maxFarmAllocMB {
		t.Fatalf("farm CheckSeed allocated %.2f MB per program, limit %.2f MB", mb, maxFarmAllocMB)
	}
}
