package farm

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/dep"
	"repro/internal/engine"
	"repro/internal/frontend"
	"repro/internal/gospel"
	"repro/internal/interp"
	"repro/internal/specs"
	"repro/ir"
)

// Divergence kinds. Output and error divergences are judged against the
// reference interpreter; census divergences against another variant that
// ran the same effective pass order.
const (
	// KindOutput: the optimized program printed different values than the
	// unoptimized reference — a miscompile.
	KindOutput = "output"
	// KindCensus: two variants that ran the same pass order applied a
	// different action census — nondeterminism or an engine disagreement.
	KindCensus = "census"
	// KindError: a variant's pipeline or its optimized program failed
	// where the reference ran clean.
	KindError = "error"
)

// Divergence is one oracle failure. (Kind, Variant, Baseline) is the
// divergence class the minimizer preserves while shrinking.
type Divergence struct {
	Kind     string `json:"kind"`
	Variant  string `json:"variant"`
	Baseline string `json:"baseline"` // "reference", or the peer variant for census
	Detail   string `json:"detail"`
}

func (d Divergence) String() string {
	return fmt.Sprintf("%s: %s vs %s: %s", d.Kind, d.Variant, d.Baseline, d.Detail)
}

// sameClass reports whether two divergences are the same class — the
// minimizer's shrink invariant.
func sameClass(a, b Divergence) bool {
	return a.Kind == b.Kind && a.Variant == b.Variant && a.Baseline == b.Baseline
}

// Checker is the differential oracle: one immutable configuration matrix
// plus the parsed spec registry it runs. Safe for concurrent use — every
// check compiles its own pass closures (the engine's optimizers carry
// per-run counters) from the shared read-only parsed specs.
type Checker struct {
	cfg      Config
	sources  map[string]string
	specs    map[string]*gospel.Spec
	order    []string
	variants []Variant
}

// NewChecker validates and freezes a configuration: every pass named by
// the default order, a variant order, or the variant matrix must parse,
// typecheck and compile. Bad injected specs fail here, synchronously,
// not as a mid-campaign error storm.
func NewChecker(cfg Config) (*Checker, error) {
	c := &Checker{cfg: cfg, sources: cfg.Sources, order: cfg.Order, variants: cfg.Variants}
	if c.sources == nil {
		c.sources = specs.Sources
	}
	if len(c.order) == 0 {
		c.order = DefaultOrder()
	}
	if len(c.variants) == 0 {
		c.variants = DefaultVariants()
	}
	need := append([]string(nil), c.order...)
	for _, v := range c.variants {
		need = append(need, v.Order...)
		if v.Engine != "" && v.Engine != EngineInterp {
			if _, ok := cfg.Pipelines[v.Engine]; !ok {
				return nil, fmt.Errorf("farm: variant %s names unregistered engine %q", v.Name, v.Engine)
			}
		}
	}
	c.specs = make(map[string]*gospel.Spec, len(need))
	for _, name := range need {
		if _, done := c.specs[name]; done {
			continue
		}
		src, ok := c.sources[name]
		if !ok {
			return nil, fmt.Errorf("farm: pass %q is not in the spec registry", name)
		}
		spec, err := gospel.ParseAndCheck(name, src)
		if err != nil {
			return nil, fmt.Errorf("farm: spec %s: %w", name, err)
		}
		if _, err := engine.Compile(spec); err != nil {
			return nil, fmt.Errorf("farm: spec %s: %w", name, err)
		}
		c.specs[name] = spec
	}
	return c, nil
}

// Variants returns the checker's configuration matrix (for status pages).
func (c *Checker) Variants() []Variant { return c.variants }

func (c *Checker) interpCfg() interp.Config {
	return interp.Config{MaxSteps: c.cfg.MaxSteps}
}

// effectiveOrder resolves a variant's pass order for one program.
func (c *Checker) effectiveOrder(v Variant, source string) []string {
	if v.Auto && c.cfg.AutoOrder != nil {
		if ord := c.cfg.AutoOrder(source); len(ord) > 0 {
			kept := ord[:0:0]
			for _, name := range ord {
				if _, ok := c.specs[name]; ok {
					kept = append(kept, name)
				}
			}
			if len(kept) > 0 {
				return kept
			}
		}
	}
	if len(v.Order) > 0 {
		return v.Order
	}
	return rotated(c.order, v.Rotate)
}

// CheckSeed generates corpus program (profile, seed) and checks it,
// returning the source alongside any divergences so callers can persist a
// reproducible finding.
func (c *Checker) CheckSeed(ctx context.Context, profile string, seed int64, maxStmts int) (string, []Divergence, error) {
	src, err := SourceFor(profile, seed, maxStmts)
	if err != nil {
		return "", nil, err
	}
	divs, err := c.CheckSource(ctx, src)
	return src, divs, err
}

// CheckSource runs the differential oracle over one program: reference
// interpretation of the original, then every variant's optimize+execute,
// comparing outputs byte-exactly against the reference and action
// censuses between same-order variants. The returned error is an
// infrastructure failure (unparseable source, reference execution
// failure, context cancellation) — divergences are data, not errors.
func (c *Checker) CheckSource(ctx context.Context, source string) ([]Divergence, error) {
	prog, err := frontend.Parse(source)
	if err != nil {
		return nil, fmt.Errorf("farm: parse: %w", err)
	}
	ref, err := interp.Run(prog.Clone(), nil, c.interpCfg())
	if err != nil {
		return nil, fmt.Errorf("farm: reference run: %w", err)
	}

	type vrun struct {
		name     string
		orderKey string
		census   map[string]int
		clean    bool // ran and matched the reference; census is comparable
	}
	var divs []Divergence
	runs := make([]vrun, 0, len(c.variants))
	for _, v := range c.variants {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		order := c.effectiveOrder(v, source)
		run := vrun{name: v.Name, orderKey: strings.Join(order, ",")}
		opt, census, rerr := c.runVariant(ctx, v, prog, source, order)
		if rerr != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			divs = append(divs, Divergence{Kind: KindError, Variant: v.Name,
				Baseline: "reference", Detail: rerr.Error()})
			runs = append(runs, run)
			continue
		}
		run.census = census
		out, xerr := interp.Run(opt, nil, c.interpCfg())
		if xerr != nil {
			divs = append(divs, Divergence{Kind: KindError, Variant: v.Name,
				Baseline: "reference", Detail: "optimized program failed: " + xerr.Error()})
			runs = append(runs, run)
			continue
		}
		if d, bad := diffOutput(v.Name, ref.Output, out.Output); bad {
			divs = append(divs, d)
			runs = append(runs, run)
			continue
		}
		run.clean = true
		runs = append(runs, run)
	}

	// Census comparison: variants that ran the same effective order must
	// have applied the exact same actions; the first clean run per order
	// group is the baseline. Different orders legitimately differ.
	base := map[string]vrun{}
	for _, r := range runs {
		if !r.clean {
			continue
		}
		b, ok := base[r.orderKey]
		if !ok {
			base[r.orderKey] = r
			continue
		}
		if detail, same := censusDiff(b.census, r.census); !same {
			divs = append(divs, Divergence{Kind: KindCensus, Variant: r.name,
				Baseline: b.name, Detail: detail})
		}
	}
	return divs, nil
}

// runVariant optimizes one fresh clone of the program under a variant's
// engine and order, returning the optimized program and its census.
func (c *Checker) runVariant(ctx context.Context, v Variant, prog *ir.Program, source string, order []string) (*ir.Program, map[string]int, error) {
	if v.Engine != "" && v.Engine != EngineInterp {
		opt, census, err := c.cfg.Pipelines[v.Engine](ctx, source, order, c.cfg.MaxIterations)
		if err != nil {
			return nil, nil, err
		}
		if verr := opt.Validate(); verr != nil {
			return nil, nil, fmt.Errorf("optimized program is structurally invalid: %w", verr)
		}
		return opt, census, nil
	}
	p := prog.Clone()
	census := make(map[string]int, len(order))
	var eopts []engine.Option
	if c.cfg.MaxIterations > 0 {
		eopts = append(eopts, engine.WithMaxApplications(c.cfg.MaxIterations))
	}
	var g *dep.Graph // carried from pass to pass
	for _, name := range order {
		o, err := engine.Compile(c.specs[name], eopts...)
		if err != nil {
			// NewChecker compiled every spec once; a failure here is a
			// checker bug, not a program-dependent condition.
			return nil, nil, fmt.Errorf("compile %s: %w", name, err)
		}
		var apps []engine.Application
		apps, g, err = o.ApplyAllWith(ctx, p, g)
		census[name] += len(apps)
		if err != nil {
			return nil, nil, fmt.Errorf("pass %s after %d application(s): %w", name, len(apps), err)
		}
	}
	if verr := p.Validate(); verr != nil {
		return nil, nil, fmt.Errorf("optimized program is structurally invalid: %w", verr)
	}
	return p, census, nil
}

// diffOutput compares an optimized program's output against the
// reference, value-exact (integer vs float identity included).
func diffOutput(variant string, want, got []ir.Value) (Divergence, bool) {
	d := Divergence{Kind: KindOutput, Variant: variant, Baseline: "reference"}
	if len(want) != len(got) {
		d.Detail = fmt.Sprintf("printed %d value(s), reference printed %d", len(got), len(want))
		return d, true
	}
	for i := range want {
		if !want[i].Equal(got[i]) {
			d.Detail = fmt.Sprintf("output[%d] = %v, reference printed %v", i, got[i], want[i])
			return d, true
		}
	}
	return Divergence{}, false
}

// censusDiff compares two applied-action censuses, reporting the first
// differing pass (in sorted order, so the detail is deterministic).
func censusDiff(base, other map[string]int) (string, bool) {
	names := make([]string, 0, len(base)+len(other))
	for n := range base {
		names = append(names, n)
	}
	for n := range other {
		if _, ok := base[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		if base[n] != other[n] {
			return fmt.Sprintf("pass %s applied %d time(s), baseline applied %d", n, other[n], base[n]), false
		}
	}
	return "", true
}
