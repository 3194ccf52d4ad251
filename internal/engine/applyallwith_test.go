package engine_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/dep"
	"repro/internal/engine"
	"repro/internal/farm"
	"repro/internal/frontend"
	"repro/internal/obs"
	"repro/internal/specs"
	"repro/ir"
)

// stage is one pass of a pipeline under test, with its engine options.
type stage struct {
	name string
	opts []engine.Option
}

func stages(names []string) []stage {
	out := make([]stage, len(names))
	for i, n := range names {
		out[i] = stage{name: n}
	}
	return out
}

// examplePipelines are the six pass pipelines the byte-identity checks run
// over examples/programs: the CLI demo, the hompack-ish pipeline, the
// paper's ten, the aggregation family, the literature extensions, and a
// loop-restructuring order.
var examplePipelines = [][]string{
	{"CTP", "DCE"},
	{"CTP", "CFO", "DCE", "FUS", "PAR"},
	specs.Ten,
	specs.Aggregation,
	{"CFO", "SRD", "IDE", "RAE", "LRV", "NRM"},
	{"FUS", "INX", "LUR", "CPP", "ICM", "BMP", "CRC", "DCE"},
}

// passRun records what one pass did: its applications, its per-pass
// statistics with the wall-clock duration dropped, and the program it left.
type passRun struct {
	apps  []engine.Application
	stats obs.PassStats
	prog  string
}

// runPipeline runs the stages over a fresh parse of src, either each pass
// on its own dep.Compute (ApplyAllCtx) or on one graph carried from pass to
// pass (ApplyAllWith). The carried graph is checked against a fresh
// dep.Compute after every pass.
func runPipeline(t *testing.T, src string, pipe []stage, carry bool) ([]passRun, *ir.Program) {
	t.Helper()
	p := frontend.MustParse(src)
	var runs []passRun
	var g *dep.Graph
	for _, st := range pipe {
		var ps obs.PassStats
		opts := append([]engine.Option{engine.WithPassStats(func(s obs.PassStats) { ps = s })}, st.opts...)
		o := specs.MustCompile(st.name, opts...)
		var apps []engine.Application
		var err error
		if carry {
			apps, g, err = o.ApplyAllWith(context.Background(), p, g)
		} else {
			apps, err = o.ApplyAllCtx(context.Background(), p)
		}
		if err != nil {
			t.Fatalf("%s (carry=%t): %v", st.name, carry, err)
		}
		if carry {
			switch {
			case g != nil:
				if got, want := g.Deps(), dep.Compute(p).Deps(); !reflect.DeepEqual(got, want) {
					t.Fatalf("after %s the carried graph differs from dep.Compute\ncarried:\n%s\nfresh:\n%s",
						st.name, g.String(), dep.Compute(p).String())
				}
			case o.RecomputeDeps || len(apps) == 0:
				t.Fatalf("after %s ApplyAllWith returned no graph, though the pass left it current", st.name)
			}
		}
		ps.Duration = 0
		runs = append(runs, passRun{apps: apps, stats: ps, prog: p.String()})
	}
	return runs, p
}

func checkCarriedMatchesPerPass(t *testing.T, src string, pipe []stage) {
	t.Helper()
	want, wp := runPipeline(t, src, pipe, false)
	got, gp := runPipeline(t, src, pipe, true)
	for i := range pipe {
		name := pipe[i].name
		if !reflect.DeepEqual(got[i].apps, want[i].apps) {
			t.Fatalf("pass %d %s: applications differ\ncarried:  %v\nper-pass: %v", i, name, got[i].apps, want[i].apps)
		}
		if got[i].stats != want[i].stats {
			t.Fatalf("pass %d %s: PassStats differ\ncarried:  %+v\nper-pass: %+v", i, name, got[i].stats, want[i].stats)
		}
		if got[i].prog != want[i].prog {
			t.Fatalf("pass %d %s: programs differ\ncarried:\n%s\nper-pass:\n%s", i, name, got[i].prog, want[i].prog)
		}
	}
	if g, w := ir.ToMiniF(gp), ir.ToMiniF(wp); g != w {
		t.Fatalf("MiniF differs\ncarried:\n%s\nper-pass:\n%s", g, w)
	}
}

// TestApplyAllWithMatchesPerPass is the differential for carrying one
// maintained dependence graph through a pass pipeline: on the example
// programs × six pipelines and on 100 farm aggregation programs through the
// farm's default order, ApplyAllWith must make the same applications,
// report the same per-pass statistics and print the same program as
// running every pass on a fresh dep.Compute, and the carried graph must
// equal a fresh one after every pass. Two mixed pipelines put a
// WithoutIncremental pass and a WithoutRecompute pass mid-pipeline.
func TestApplyAllWithMatchesPerPass(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.mf"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs: %v", err)
	}
	mixed := []stage{
		{name: "CTP"},
		{name: "CFO", opts: []engine.Option{engine.WithoutIncremental()}},
		{name: "CPP", opts: []engine.Option{engine.WithoutRecompute()}},
		{name: "DCE"},
		{name: "FUS"},
		{name: "PAR"},
	}
	aggMixed := []stage{
		{name: "CTP"},
		{name: "AGG", opts: []engine.Option{engine.WithoutRecompute()}},
		{name: "AGM", opts: []engine.Option{engine.WithoutIncremental()}},
		{name: "AGS"},
		{name: "DCE"},
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		base := filepath.Base(file)
		if testing.Short() && base == "hompack-ish.mf" {
			continue
		}
		for _, pipe := range examplePipelines {
			t.Run(base+"/"+strings.Join(pipe, ","), func(t *testing.T) {
				checkCarriedMatchesPerPass(t, string(raw), stages(pipe))
			})
		}
		t.Run(base+"/mixed", func(t *testing.T) { checkCarriedMatchesPerPass(t, string(raw), mixed) })
		t.Run(base+"/agg-mixed", func(t *testing.T) { checkCarriedMatchesPerPass(t, string(raw), aggMixed) })
	}
	t.Run("aggregation", func(t *testing.T) {
		order := stages(farm.DefaultOrder())
		for seed := int64(1); seed <= 100; seed++ {
			src, err := farm.SourceFor("aggregation", seed, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkCarriedMatchesPerPass(t, src, order)
			if seed%10 == 0 {
				checkCarriedMatchesPerPass(t, src, aggMixed)
			}
		}
	})
}
