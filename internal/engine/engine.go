package engine

import (
	"fmt"
	"time"

	"repro/dep"
	"repro/internal/gospel"
	"repro/internal/obs"
	"repro/ir"
)

// PassTimingFunc observes one completed ApplyAll run: the specification
// name, the number of applications performed, and the wall-clock duration.
// Hooks must be safe for concurrent use when the optimizer is shared.
type PassTimingFunc func(spec string, applications int, d time.Duration)

// Optimizer is a compiled GOSpeL specification: the output of GENesis for
// one optimization. It is stateless with respect to programs; Cost is
// accumulated across calls and may be reset with ResetCost.
type Optimizer struct {
	Spec *gospel.Spec
	// Strategy selects the membership-clause evaluation order (Section 4's
	// two implementations and the heuristic).
	Strategy Strategy
	// RecomputeDeps controls whether ApplyAll recomputes the dependence
	// graph after each application (the interactive choice in the paper's
	// constructor-built interface). Default true.
	RecomputeDeps bool
	// IncrementalDeps selects how RecomputeDeps refreshes the graph:
	// incrementally from the change journal (default) or with a full
	// dep.Compute per application (WithoutIncremental — the seed behavior,
	// kept for differential testing and as an escape hatch).
	IncrementalDeps bool
	// MaxApplications bounds ApplyAll as a safety net. When the cap is hit
	// while another application point is still available, ApplyAll returns
	// the applications performed alongside optlib.ErrIterationLimit.
	MaxApplications int
	// OnPassDone, when non-nil, is called at the end of every ApplyAll run
	// with the pass timing (services use this to feed latency metrics).
	OnPassDone PassTimingFunc
	// OnPassStats, when non-nil, is called at the end of every ApplyAll run
	// with the full per-pass observability counters: precondition checks,
	// dependence-store lookups split scalar/array/control, incremental vs
	// structural graph maintenance, and undo-log rollbacks.
	OnPassStats func(obs.PassStats)
	// Tracer, when enabled, receives one span tree per ApplyAll run: a pass
	// span with a child per candidate application point covering the
	// pattern-match, dependence-evaluation and action-application phases.
	// A nil tracer costs only nil checks on the hot path.
	Tracer *obs.Tracer

	plan *plan
	cost Cost
}

// Option configures a compiled optimizer.
type Option func(*Optimizer)

// WithStrategy selects the membership evaluation strategy.
func WithStrategy(s Strategy) Option { return func(o *Optimizer) { o.Strategy = s } }

// WithoutRecompute disables dependence recomputation between applications.
func WithoutRecompute() Option { return func(o *Optimizer) { o.RecomputeDeps = false } }

// WithoutIncremental makes ApplyAll rebuild the dependence graph from
// scratch after each application instead of incrementally maintaining it.
func WithoutIncremental() Option { return func(o *Optimizer) { o.IncrementalDeps = false } }

// WithMaxApplications bounds ApplyAll at n applications (n < 1 keeps the
// default). Hitting the bound with work remaining surfaces as
// optlib.ErrIterationLimit.
func WithMaxApplications(n int) Option {
	return func(o *Optimizer) {
		if n >= 1 {
			o.MaxApplications = n
		}
	}
}

// WithPassTiming installs a pass-timing hook called after every ApplyAll.
func WithPassTiming(f PassTimingFunc) Option { return func(o *Optimizer) { o.OnPassDone = f } }

// WithPassStats installs a per-pass statistics hook called after every
// ApplyAll run with the aggregated engine, dependence-store and undo-log
// counters (services fold these into Prometheus metrics).
func WithPassStats(f func(obs.PassStats)) Option {
	return func(o *Optimizer) { o.OnPassStats = f }
}

// WithTracer installs a span tracer on the driver loop. A nil or disabled
// tracer leaves the hot path untraced (nil checks only).
func WithTracer(t *obs.Tracer) Option { return func(o *Optimizer) { o.Tracer = t } }

// Compile turns a checked specification into an optimizer. It performs the
// generator's static work: validating that the specification's element
// types have candidate generators and laying out the slot table every
// search binds into.
func Compile(spec *gospel.Spec, opts ...Option) (*Optimizer, error) {
	if spec == nil {
		return nil, fmt.Errorf("engine: nil specification")
	}
	o := &Optimizer{
		Spec:            spec,
		Strategy:        StrategyHeuristic,
		RecomputeDeps:   true,
		IncrementalDeps: true,
		MaxApplications: 1000,
	}
	for _, opt := range opts {
		opt(o)
	}
	// The set_up phase of the generated code: verify every pattern element
	// is generable.
	for _, pc := range spec.Patterns {
		if pc.Quant == gospel.QAll && len(pc.Elems) != 1 {
			return nil, fmt.Errorf("engine: 'all' pattern clauses take a single element")
		}
		for _, n := range pc.Elems {
			if _, ok := spec.DeclKind(n); !ok {
				return nil, fmt.Errorf("engine: pattern element %s undeclared", n)
			}
		}
	}
	o.plan = newPlan(spec)
	return o, nil
}

// Cost returns the accumulated cost counters.
func (o *Optimizer) Cost() Cost { return o.cost }

// ResetCost clears the counters.
func (o *Optimizer) ResetCost() { o.cost = Cost{} }

// Name returns the specification name.
func (o *Optimizer) Name() string { return o.Spec.Name }

// newContext builds the evaluation context for one run.
func (o *Optimizer) newContext(p *ir.Program, g *dep.Graph) *context {
	return &context{prog: p, graph: g, cost: &o.cost, opt: o}
}

// search runs one precondition search, calling yield with the frame for
// each complete binding; yield returns false to stop. The frame is reused
// and rebound as the search backtracks, so yield must copy what it keeps.
func (o *Optimizer) search(ctx *context, yield func(*frame) bool) {
	ctx.beginSearch()
	o.matchPattern(ctx, 0, yield)
	ctx.endSearch()
}

// Preconditions finds every binding of the specification's precondition in
// the current program: the application points. The dependence graph must
// describe the current program state.
func (o *Optimizer) Preconditions(p *ir.Program, g *dep.Graph) []Env {
	var out []Env
	o.search(o.newContext(p, g), func(f *frame) bool {
		out = append(out, f.env())
		return true // continue searching
	})
	return out
}

// PreconditionsPatternOnly finds every binding of the Code_Pattern section
// alone, skipping the Depend clauses: the application points available when
// the user overrides dependence restrictions, as the paper's
// constructor-built interactive interface permits. Elements bound only by
// Depend clauses stay unbound; actions that need them will fail at ApplyAt.
func (o *Optimizer) PreconditionsPatternOnly(p *ir.Program, g *dep.Graph) []Env {
	ctx := o.newContext(p, g)
	ctx.patternOnly = true
	var out []Env
	o.search(ctx, func(f *frame) bool {
		out = append(out, f.env())
		return true // continue searching
	})
	return out
}

// CountPatternOnly counts the Code_Pattern bindings without materializing
// environments — the advisor's per-optimization opportunity census. It is a
// cheap upper bound on the application-point count: Depend clauses are
// skipped, so the search generates no dependence-store traffic and g may be
// a bare &dep.Graph{Prog: p} stub.
func (o *Optimizer) CountPatternOnly(p *ir.Program, g *dep.Graph) int {
	ctx := o.newContext(p, g)
	ctx.patternOnly = true
	n := 0
	o.search(ctx, func(*frame) bool {
		n++
		return true
	})
	return n
}

// findFirst returns the first full precondition binding, if any, as a copy
// of the search frame.
func (o *Optimizer) findFirst(ctx *context) (*frame, bool) {
	var found *frame
	o.search(ctx, func(f *frame) bool {
		found = &frame{}
		found.copyFrom(f)
		return false // stop
	})
	return found, found != nil
}

// matchPattern advances through Code_Pattern clauses, then hands over to the
// Depend clauses; yield is called for each complete binding and returns
// false to stop the search.
func (o *Optimizer) matchPattern(ctx *context, idx int, yield func(*frame) bool) bool {
	if idx >= len(o.Spec.Patterns) {
		if ctx.patternOnly {
			return yield(ctx.f)
		}
		if !ctx.timed {
			return o.matchDepend(ctx, 0, yield)
		}
		// Tracing: attribute the Depend section's evaluation time to the
		// depend phase, leaving search-minus-depend as the match phase.
		t0 := time.Now()
		r := o.matchDepend(ctx, 0, yield)
		ctx.depNS += time.Since(t0).Nanoseconds()
		return r
	}
	pc := o.Spec.Patterns[idx]
	slots := o.plan.pat[idx]

	// Skip clauses whose elements were already bound by earlier clauses
	// (shared variables in chained pair declarations).
	allBound := true
	for _, s := range slots {
		if !ctx.f.bound(s) {
			allBound = false
			break
		}
	}
	if allBound {
		if pc.Format != nil && !ctx.patternHolds(pc.Format) {
			return true
		}
		return o.matchPattern(ctx, idx+1, yield)
	}

	d := ctx.domain(slots)
	if pc.Quant == gospel.QAll {
		// Bind the single element name to the set of all matching
		// statements and continue.
		var set []*ir.Stmt
		for i := 0; i < d.len(); i++ {
			bound, _ := ctx.bindCandidate(d, slots, i)
			if (pc.Format == nil || ctx.patternHolds(pc.Format)) && !d.loop {
				set = append(set, d.stmts[i])
			}
			ctx.f.unbind(bound)
		}
		ctx.f.vals[slots[0]] = setVal(set)
		r := o.matchPattern(ctx, idx+1, yield)
		ctx.f.unbind(slots)
		return r
	}

	for i := 0; i < d.len(); i++ {
		bound, ok := ctx.bindCandidate(d, slots, i)
		if !ok {
			continue
		}
		if pc.Format != nil && !ctx.patternHolds(pc.Format) {
			ctx.f.unbind(bound)
			continue
		}
		more := o.matchPattern(ctx, idx+1, yield)
		ctx.f.unbind(bound)
		if !more {
			return false
		}
	}
	return true
}

// patternHolds evaluates a Code_Pattern format under the frame, counting
// its comparisons as pattern checks.
func (c *context) patternHolds(format gospel.Expr) bool {
	c.inPattern = true
	ok := c.evalBool(c.f, format)
	c.inPattern = false
	return ok
}

// domain is a pattern clause's candidate list, drawn straight from the
// program with the library's finder routines (find_statement,
// find_nested_loops, ...): statements, loops, or loop pairs.
type domain struct {
	stmts      []*ir.Stmt
	loops      []ir.Loop
	pairs      [][2]ir.Loop
	loop, pair bool
}

func (d domain) len() int {
	switch {
	case d.pair:
		return len(d.pairs)
	case d.loop:
		return len(d.loops)
	}
	return len(d.stmts)
}

// domain returns the candidate list of the pattern clause binding slots.
func (c *context) domain(slots []int) domain {
	kind := c.opt.plan.kind[slots[0]]
	if len(slots) == 1 {
		if kind == gospel.KStmt {
			return domain{stmts: c.prog.Stmts()}
		}
		return domain{loops: c.loopList(), loop: true}
	}
	return domain{pairs: c.pairList(kind), pair: true}
}

// bindCandidate binds candidate i of d into the clause's slots and
// returns the slots it bound. A loop pair unifies with loops already bound
// by an earlier clause (chained pairs share names); on a mismatch nothing
// is bound and ok is false.
func (c *context) bindCandidate(d domain, slots []int, i int) (bound []int, ok bool) {
	switch {
	case d.pair:
		pr := d.pairs[i]
		a, b := slots[0], slots[1]
		ab, bb := c.f.bound(a), c.f.bound(b)
		if ab && !sameLoop(c.f.vals[a], pr[0]) || bb && !sameLoop(c.f.vals[b], pr[1]) {
			return nil, false
		}
		switch {
		case ab:
			c.f.vals[b] = loopVal(pr[1])
			return slots[1:2], true
		case bb:
			c.f.vals[a] = loopVal(pr[0])
			return slots[0:1], true
		}
		c.f.vals[a], c.f.vals[b] = loopVal(pr[0]), loopVal(pr[1])
		return slots[:2], true
	case d.loop:
		c.f.vals[slots[0]] = loopVal(d.loops[i])
	default:
		c.f.vals[slots[0]] = stmtVal(d.stmts[i])
	}
	return slots[:1], true
}

func sameLoop(v Value, l ir.Loop) bool { return v.Kind == VLoop && v.Stmt == l.Head }
