// Package genesis is a from-scratch Go reproduction of GENesis, the
// optimizer generator of Whitfield & Soffa, "Automatic Generation of Global
// Optimizers" (PLDI 1991). Optimizations — traditional and parallelizing —
// are written declaratively in GOSpeL, a specification language of code
// patterns, global data/control dependence conditions and five primitive
// transformation actions; this package turns such specifications into
// executable optimizers and into standalone generated Go source (the
// paper's generated C).
//
// The typical flow:
//
//	prog, _ := genesis.ParseProgram(miniFortranSource)
//	opt, _ := genesis.BuiltIn("CTP")         // or ParseSpec + Compile
//	n, _ := opt.ApplyAll(prog)               // transform to fixpoint
//	fmt.Println(n, "applications")
//	fmt.Print(prog)                          // optimized program
//
// Programs are written in MiniF, a small FORTRAN-77-flavoured language
// (see repro/internal/frontend's package documentation for the grammar);
// the IR they parse into is the public repro/ir package, and the
// dependence analysis behind the preconditions is repro/dep.
package genesis

import (
	"context"
	"fmt"
	"io"

	"repro/dep"
	"repro/internal/codegen"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/frontend"
	"repro/internal/gospel"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/specs"
	"repro/ir"
)

// ParseProgram parses MiniF source into an IR program.
func ParseProgram(source string) (*ir.Program, error) {
	return frontend.Parse(source)
}

// Spec is a parsed and semantically checked GOSpeL specification.
type Spec struct {
	inner *gospel.Spec
}

// ParseSpec parses and checks a GOSpeL specification. The name identifies
// the optimization (used in generated code and reports).
func ParseSpec(name, source string) (*Spec, error) {
	s, err := gospel.ParseAndCheck(name, source)
	if err != nil {
		return nil, err
	}
	return &Spec{inner: s}, nil
}

// Name returns the specification's name.
func (s *Spec) Name() string { return s.inner.Name }

// Format renders the specification in canonical GOSpeL concrete syntax;
// the output re-parses to an equivalent specification.
func (s *Spec) Format() string { return gospel.Format(s.inner) }

// Strategy selects how membership-qualified dependence clauses search for
// candidates (the paper's two implementations plus the heuristic; see
// Section 4's cost experiment).
type Strategy = engine.Strategy

// Strategy values.
const (
	Heuristic    = engine.StrategyHeuristic
	MembersFirst = engine.StrategyMembers
	DepsFirst    = engine.StrategyDeps
)

// Option configures a compiled optimizer.
type Option func(*compileConfig)

type compileConfig struct {
	engineOpts []engine.Option
}

// WithStrategy selects the membership evaluation strategy.
func WithStrategy(s Strategy) Option {
	return func(c *compileConfig) {
		c.engineOpts = append(c.engineOpts, engine.WithStrategy(s))
	}
}

// WithoutRecompute stops ApplyAll from recomputing dependences between
// applications (the interactive choice the paper's constructor offers).
func WithoutRecompute() Option {
	return func(c *compileConfig) {
		c.engineOpts = append(c.engineOpts, engine.WithoutRecompute())
	}
}

// WithoutIncremental makes ApplyAll rebuild the dependence graph from
// scratch after every application instead of incrementally updating it from
// the change journal. Incremental maintenance is the default; this option
// exists for differential testing and benchmarking.
func WithoutIncremental() Option {
	return func(c *compileConfig) {
		c.engineOpts = append(c.engineOpts, engine.WithoutIncremental())
	}
}

// WithMaxApplications bounds ApplyAll at n applications (the optlib.Limits
// iteration cap surfaced through the compiled-optimizer API; n < 1 keeps
// the default of 1000). When the cap is hit while another application point
// remains, ApplyAll returns the count so far alongside
// optlib.ErrIterationLimit.
func WithMaxApplications(n int) Option {
	return func(c *compileConfig) {
		c.engineOpts = append(c.engineOpts, engine.WithMaxApplications(n))
	}
}

// WithTracer installs a span tracer on the compiled optimizer's driver
// loop: every ApplyAll run produces one "pass" span tree with a child per
// candidate application point covering the pattern-match,
// dependence-evaluation and action-application phases. A nil or disabled
// tracer costs only nil checks on the hot path.
func WithTracer(t *obs.Tracer) Option {
	return func(c *compileConfig) {
		c.engineOpts = append(c.engineOpts, engine.WithTracer(t))
	}
}

// WithPassStats installs a hook receiving one obs.PassStats per ApplyAll
// run: the engine's precondition-check counters plus the dependence-store
// lookup, graph-maintenance and undo-log rollback totals.
func WithPassStats(f func(obs.PassStats)) Option {
	return func(c *compileConfig) {
		c.engineOpts = append(c.engineOpts, engine.WithPassStats(f))
	}
}

// Optimizer is an executable optimizer produced from a specification —
// what GENesis generates.
type Optimizer struct {
	inner *engine.Optimizer
}

// Compile turns the specification into an optimizer.
func (s *Spec) Compile(opts ...Option) (*Optimizer, error) {
	var cfg compileConfig
	for _, o := range opts {
		o(&cfg)
	}
	e, err := engine.Compile(s.inner, cfg.engineOpts...)
	if err != nil {
		return nil, err
	}
	return &Optimizer{inner: e}, nil
}

// BuiltIn compiles one of the paper's optimizations by name: CPP, CTP,
// DCE, ICM, INX, CRC, BMP, PAR, LUR, FUS (plus CFO and the LUR variants).
func BuiltIn(name string, opts ...Option) (*Optimizer, error) {
	src, ok := specs.Sources[name]
	if !ok {
		return nil, fmt.Errorf("genesis: unknown built-in optimization %q (have %v)",
			name, specs.Names())
	}
	s, err := ParseSpec(name, src)
	if err != nil {
		return nil, err
	}
	return s.Compile(opts...)
}

// BuiltInNames lists the built-in optimization names.
func BuiltInNames() []string { return specs.Names() }

// TenOptimizations lists the paper's ten optimizations in Section 4 order.
func TenOptimizations() []string { return append([]string{}, specs.Ten...) }

// BuiltInSource returns the GOSpeL text of a built-in optimization.
func BuiltInSource(name string) (string, error) {
	src, ok := specs.Sources[name]
	if !ok {
		return "", fmt.Errorf("genesis: unknown built-in optimization %q", name)
	}
	return src, nil
}

// Name returns the optimizer's name.
func (o *Optimizer) Name() string { return o.inner.Name() }

// ApplyOnce applies the optimization at the first application point found,
// reporting whether one existed.
func (o *Optimizer) ApplyOnce(p *ir.Program) (bool, error) {
	return o.inner.ApplyOnce(p)
}

// ApplyAll applies the optimization to fixpoint (each application point at
// most once) and returns the number of applications.
func (o *Optimizer) ApplyAll(p *ir.Program) (int, error) {
	apps, err := o.inner.ApplyAll(p)
	return len(apps), err
}

// ApplyAllCtx is ApplyAll under a context: the fixpoint loop stops early
// with ctx.Err() when the context is cancelled or its deadline passes,
// returning the applications already performed. The program is left in its
// partially-optimized (structurally valid) state.
func (o *Optimizer) ApplyAllCtx(ctx context.Context, p *ir.Program) (int, error) {
	apps, err := o.inner.ApplyAllCtx(ctx, p)
	return len(apps), err
}

// Points returns the number of application points in the current program
// without transforming it.
func (o *Optimizer) Points(p *ir.Program) int {
	return len(o.inner.Preconditions(p, dep.Compute(p)))
}

// Cost reports the work the optimizer has performed, in the paper's units:
// precondition checks and transformation operations.
type Cost struct {
	PatternChecks int
	DepChecks     int
	MemChecks     int
	ActionOps     int
}

// Checks is the total precondition checks.
func (c Cost) Checks() int { return c.PatternChecks + c.DepChecks + c.MemChecks }

// Total is checks plus transformation operations.
func (c Cost) Total() int { return c.Checks() + c.ActionOps }

// Cost returns the accumulated counters.
func (o *Optimizer) Cost() Cost {
	c := o.inner.Cost()
	return Cost{
		PatternChecks: c.PatternChecks,
		DepChecks:     c.DepChecks,
		MemChecks:     c.MemChecks,
		ActionOps:     c.ActionOps,
	}
}

// ResetCost clears the counters.
func (o *Optimizer) ResetCost() { o.inner.ResetCost() }

// GenerateGo emits standalone Go source implementing the specification —
// the analog of the C code GENesis generated (paper Fig. 6). The emitted
// file depends only on repro/ir, repro/dep and repro/optlib. With emitMain,
// the file is a complete command-line optimizer.
func (s *Spec) GenerateGo(pkg string, emitMain bool) (string, error) {
	return codegen.Generate(s.inner, codegen.Options{Package: pkg, EmitMain: emitMain})
}

// Optimize parses a program, applies the named built-in optimizations in
// order (each to fixpoint, one dependence graph maintained across them) and
// returns the optimized program together with the per-optimization
// application counts.
func Optimize(source string, optimizations ...string) (*ir.Program, map[string]int, error) {
	p, err := ParseProgram(source)
	if err != nil {
		return nil, nil, err
	}
	counts := map[string]int{}
	var g *dep.Graph
	for _, name := range optimizations {
		o, err := BuiltIn(name)
		if err != nil {
			return nil, nil, err
		}
		var apps []engine.Application
		apps, g, err = o.inner.ApplyAllWith(context.Background(), p, g)
		if err != nil {
			return nil, nil, err
		}
		counts[name] += len(apps)
	}
	return p, counts, nil
}

// Execute runs a program on the given input values (consumed by READ
// statements) and returns the printed values. It is the reference
// interpreter used throughout the test suite to check that optimization
// preserves behaviour.
func Execute(p *ir.Program, input []ir.Value) ([]ir.Value, error) {
	r, err := interp.Run(p, input, interp.Config{})
	if err != nil {
		return nil, err
	}
	return r.Output, nil
}

// Dependences computes the dependence graph the preconditions consult,
// for inspection and tooling.
func Dependences(p *ir.Program) *dep.Graph { return dep.Compute(p) }

// RunExperiments regenerates every Section-4 result of the paper, writing
// the tables to w (see EXPERIMENTS.md for the paper-vs-measured record).
func RunExperiments(w io.Writer) error { return experiments.RunAll(w) }
