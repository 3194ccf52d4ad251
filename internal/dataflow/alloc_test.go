//go:build !race

package dataflow

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/frontend"
)

// TestAnalyzeNamesAllocations guards the Workspace promise that a steady
// stream of analyses allocates nothing: once warm, a restricted
// AnalyzeNames on hompack-ish reuses the CFGs, the site lists and the
// word buffer every fact family, seed set and mark set is carved from.
// Race builds are excluded: the race detector's instrumentation changes
// allocation totals.
func TestAnalyzeNamesAllocations(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "examples", "programs", "hompack-ish.mf"))
	if err != nil {
		t.Fatal(err)
	}
	p := frontend.MustParse(string(raw))
	var ws Workspace
	ws.AnalyzeNames(p, nil) // sizes every buffer for the whole program
	for _, names := range []map[string]bool{{"n": true}, {"x": true, "a": true}, nil} {
		if n := testing.AllocsPerRun(20, func() { ws.AnalyzeNames(p, names) }); n != 0 {
			t.Errorf("warm AnalyzeNames(%v) allocated %.0f times per call", names, n)
		}
	}
}
