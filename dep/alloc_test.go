//go:build !race

package dep

import (
	"runtime"
	"testing"
	"unsafe"
)

// maxComputeFixedKB bounds what a dep.Compute of hompack-ish allocates
// besides its final edge storage (45 chunks, 553 KB): the dataflow
// workspace, the buckets, the per-edge class and sort scratch, the loop
// table and the maps. It was measured at 739 KB (1.3 MB in all) when the
// dataflow fact families became flat word slices without per-statement
// set headers and commit began sizing the buckets by a counting pass,
// carving them from one flat slice per table instead of growing each by
// append; and at 958 KB (1.5 MB in all) when the edge store became a
// chunked arena and the array pair tests' grouping state moved into the
// graph's scratch. Before, the whole build allocated
// 3.3 MB: growing its pending edges by append allocated about 2.3 MB for
// the 639 KB edge arena the build kept.
const maxComputeFixedKB = 850

// TestComputeAllocations guards that a full build allocates about its final
// edge storage, each chunk once, plus the fixed part. Race builds are
// excluded: the race detector's instrumentation changes allocation totals.
func TestComputeAllocations(t *testing.T) {
	g := hompackGraph(t)
	p := g.Prog
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		g = Compute(p)
	}
	runtime.ReadMemStats(&after)
	total := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1e3
	edges := float64(len(g.edges.chunks)) * float64(unsafe.Sizeof(*g.edges.chunks[0])) / 1e3
	t.Logf("hompack-ish Compute: %.0f KB allocated, %.0f KB of it the %d edge chunks", total, edges, len(g.edges.chunks))
	if fixed := total - edges; fixed > maxComputeFixedKB {
		t.Fatalf("hompack-ish Compute allocated %.0f KB besides its %.0f KB of edge storage, limit %d KB", fixed, edges, maxComputeFixedKB)
	}
}

// TestWildcardCountAllocations guards that a memoized kind-only Count
// allocates nothing, and that neither does refilling the memo after the
// kind lists are invalidated: the memo and the lists keep their storage.
func TestWildcardCountAllocations(t *testing.T) {
	g := hompackGraph(t)
	countAll := func() {
		for kind := Flow; kind <= Control; kind++ {
			for _, pat := range specPatterns {
				g.Count(kind, nil, nil, pat)
			}
		}
	}
	countAll()
	if n := testing.AllocsPerRun(20, countAll); n != 0 {
		t.Errorf("memoized wildcard Counts allocated %.0f times per round", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		g.kindsOK = [numKinds]bool{} // as an Update leaves them
		countAll()
	}); n != 0 {
		t.Errorf("refilling the count memos allocated %.0f times per round", n)
	}
}
