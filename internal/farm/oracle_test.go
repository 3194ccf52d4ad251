package farm

import (
	"context"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/frontend"
	"repro/internal/specs"
	"repro/ir"
)

// wrongSpec is the seeded miscompile: it deletes every constant
// definition of a scalar, unconditionally — no dependence clause guards
// the uses — so almost every generated program changes behavior. The farm
// must catch it, persist it and shrink it.
const wrongSpec = `
TYPE
  Stmt: Si;
PRECOND
  Code_Pattern
    any Si: Si.kind == assign AND Si.opc == assign AND type(Si.opr_1) == var AND type(Si.opr_2) == const;
ACTION
  delete(Si);
`

// seededChecker builds a checker whose only pass is the wrong spec.
func seededChecker(t *testing.T) *Checker {
	t.Helper()
	sources := make(map[string]string, len(specs.Sources)+1)
	for n, s := range specs.Sources {
		sources[n] = s
	}
	sources["KIL"] = wrongSpec
	ch, err := NewChecker(Config{Sources: sources, Order: []string{"KIL"}})
	if err != nil {
		t.Fatalf("NewChecker: %v", err)
	}
	return ch
}

func TestCheckerCleanOnCorpus(t *testing.T) {
	ch, err := NewChecker(Config{})
	if err != nil {
		t.Fatalf("NewChecker: %v", err)
	}
	for seed := int64(0); seed < 15; seed++ {
		_, divs, err := ch.CheckSeed(context.Background(), "aggregation", seed, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(divs) != 0 {
			src, _ := SourceFor("aggregation", seed, 0)
			t.Fatalf("seed %d: unexpected divergence %v\n%s", seed, divs, src)
		}
	}
}

func TestSeededMiscompileDetected(t *testing.T) {
	ch := seededChecker(t)
	caught := 0
	for seed := int64(0); seed < 10; seed++ {
		_, divs, err := ch.CheckSeed(context.Background(), "aggregation", seed, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, d := range divs {
			if d.Kind != KindOutput && d.Kind != KindError {
				t.Fatalf("seed %d: unexpected divergence kind %q (%s)", seed, d.Kind, d)
			}
		}
		if len(divs) > 0 {
			caught++
		}
	}
	// Every generated program defines scalars from constants and prints
	// them; deleting the definitions must be visible on nearly all seeds.
	if caught < 8 {
		t.Fatalf("seeded miscompile caught on only %d/10 seeds", caught)
	}
}

func TestCensusDivergenceBetweenSameOrderVariants(t *testing.T) {
	// A "noop" engine that returns the program unoptimized claims zero
	// applications; its output matches the reference, so only the census
	// comparison against the same-order interp variant can catch it.
	noop := func(ctx context.Context, source string, order []string, maxIter int) (*ir.Program, map[string]int, error) {
		p, err := frontend.Parse(source)
		return p, map[string]int{}, err
	}
	ch, err := NewChecker(Config{
		Order: []string{"AGG"},
		Variants: []Variant{
			{Name: "interp:default", Engine: EngineInterp},
			{Name: "noop:default", Engine: "noop"},
		},
		Pipelines: map[string]PipelineFunc{"noop": noop},
	})
	if err != nil {
		t.Fatalf("NewChecker: %v", err)
	}
	divs, err := ch.CheckSource(context.Background(), `
PROGRAM p
INTEGER m
m = 1
m = m + 2
m = m + 3
PRINT m
END`)
	if err != nil {
		t.Fatalf("CheckSource: %v", err)
	}
	if len(divs) != 1 || divs[0].Kind != KindCensus {
		t.Fatalf("divergences = %v, want one census divergence", divs)
	}
	if divs[0].Variant != "noop:default" || divs[0].Baseline != "interp:default" {
		t.Errorf("census divergence attributed to %s vs %s", divs[0].Variant, divs[0].Baseline)
	}
	if !strings.Contains(divs[0].Detail, "AGG") {
		t.Errorf("detail %q does not name the diverging pass", divs[0].Detail)
	}
}

func TestErrorDivergence(t *testing.T) {
	boom := func(ctx context.Context, source string, order []string, maxIter int) (*ir.Program, map[string]int, error) {
		return nil, nil, context.DeadlineExceeded // any non-nil error
	}
	ch, err := NewChecker(Config{
		Order:     []string{"AGG"},
		Variants:  []Variant{{Name: "boom", Engine: "boom"}},
		Pipelines: map[string]PipelineFunc{"boom": boom},
	})
	if err != nil {
		t.Fatalf("NewChecker: %v", err)
	}
	divs, err := ch.CheckSource(context.Background(), "PROGRAM p\nINTEGER m\nm = 1\nPRINT m\nEND")
	if err != nil {
		t.Fatalf("CheckSource: %v", err)
	}
	if len(divs) != 1 || divs[0].Kind != KindError {
		t.Fatalf("divergences = %v, want one error divergence", divs)
	}
}

func TestNewCheckerRejectsBadConfig(t *testing.T) {
	if _, err := NewChecker(Config{Order: []string{"NOPE"}}); err == nil {
		t.Error("unknown pass name accepted")
	}
	if _, err := NewChecker(Config{Variants: []Variant{{Name: "x", Engine: "compiled"}}}); err == nil {
		t.Error("unregistered engine accepted")
	}
	bad := map[string]string{"BAD": "TYPE\n  Stmt: Si;\nPRECOND\n  Code_Pattern\n    any Si: Si.nonsense == 1;\nACTION\n  delete(Si);\n"}
	if _, err := NewChecker(Config{Sources: bad, Order: []string{"BAD"}}); err == nil {
		t.Error("unparseable spec accepted")
	}
}

func TestRotated(t *testing.T) {
	in := []string{"A", "B", "C"}
	cases := []struct {
		n    int
		want string
	}{{0, "A,B,C"}, {1, "B,C,A"}, {2, "C,A,B"}, {3, "A,B,C"}, {-1, "C,A,B"}}
	for _, c := range cases {
		if got := strings.Join(rotated(in, c.n), ","); got != c.want {
			t.Errorf("rotated(%d) = %s, want %s", c.n, got, c.want)
		}
	}
}

// TestCheckSeedLeavesNoGoroutines guards that a check is synchronous: after
// CheckSeed returns, nothing it started still runs in the process. A
// benchmark that calibrates its host between operations relies on the
// process being idle there.
func TestCheckSeedLeavesNoGoroutines(t *testing.T) {
	c, err := NewChecker(Config{})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		seed := r.Int63()
		if _, divs, err := c.CheckSeed(context.Background(), "aggregation", seed, 0); err != nil || len(divs) > 0 {
			t.Fatalf("seed %d: err %v, %d divergence(s)", seed, err, len(divs))
		}
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutine(s) before 50 CheckSeed calls, %d after", before, after)
	}
}
