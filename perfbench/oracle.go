package main

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/frontend"
	"repro/internal/gospel"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/specs"
	"repro/ir"
)

// passTotals accumulates the engine's per-pass statistics.
type passTotals struct {
	applications, patternChecks, depChecks int64
	scalar, array, control                 int64
	incremental, structural, rollbacks     int64
}

func (t *passTotals) add(ps obs.PassStats) {
	t.applications += int64(ps.Applications)
	t.patternChecks += ps.PatternChecks
	t.depChecks += ps.DepChecks
	t.scalar += ps.ScalarLookups
	t.array += ps.ArrayLookups
	t.control += ps.ControlLookups
	t.incremental += ps.IncrementalUpdates
	t.structural += ps.StructuralRebuilds
	t.rollbacks += ps.Rollbacks
}

func (t *passTotals) plus(o passTotals) {
	t.applications += o.applications
	t.patternChecks += o.patternChecks
	t.depChecks += o.depChecks
	t.scalar += o.scalar
	t.array += o.array
	t.control += o.control
	t.incremental += o.incremental
	t.structural += o.structural
	t.rollbacks += o.rollbacks
}

// minus returns t − o, counter by counter.
func (t passTotals) minus(o passTotals) passTotals {
	return passTotals{
		applications:  t.applications - o.applications,
		patternChecks: t.patternChecks - o.patternChecks,
		depChecks:     t.depChecks - o.depChecks,
		scalar:        t.scalar - o.scalar,
		array:         t.array - o.array,
		control:       t.control - o.control,
		incremental:   t.incremental - o.incremental,
		structural:    t.structural - o.structural,
		rollbacks:     t.rollbacks - o.rollbacks,
	}
}

// div returns t / n, counter by counter.
func (t passTotals) div(n int64) passTotals {
	return passTotals{
		applications:  t.applications / n,
		patternChecks: t.patternChecks / n,
		depChecks:     t.depChecks / n,
		scalar:        t.scalar / n,
		array:         t.array / n,
		control:       t.control / n,
		incremental:   t.incremental / n,
		structural:    t.structural / n,
		rollbacks:     t.rollbacks / n,
	}
}

// pipeline is a spec list compiled once for the interpreted engine, with
// the pass-statistics hook the optd service also installs.
type pipeline struct {
	names []string
	opts  []*engine.Optimizer
	stats passTotals
}

// compilePipeline parses, checks and compiles the named built-in specs.
func compilePipeline(names []string) (*pipeline, error) {
	pl := &pipeline{names: names}
	for _, name := range names {
		spec, err := gospel.ParseAndCheck(name, specs.Sources[name])
		if err != nil {
			return nil, fmt.Errorf("spec %s: %w", name, err)
		}
		o, err := engine.Compile(spec, engine.WithPassStats(pl.stats.add))
		if err != nil {
			return nil, fmt.Errorf("spec %s: %w", name, err)
		}
		pl.opts = append(pl.opts, o)
	}
	return pl, nil
}

// optimize runs every pass over p in order. With a recorder it times each
// pass as an engine.pass span and folds the engine's span tree under it.
func (pl *pipeline) optimize(p *ir.Program, rec *recorder, item string, parent int) error {
	for i, o := range pl.opts {
		var tr *obs.Tracer
		if rec != nil {
			tr = obs.NewTracer(obs.Collect())
		}
		o.Tracer = tr
		id := rec.begin("engine.pass", item, parent)
		_, err := o.ApplyAll(p)
		rec.end(id)
		if roots := tr.Roots(); len(roots) == 1 {
			rec.engineSpans(item, id, roots[0])
		}
		if err != nil {
			return fmt.Errorf("pass %s: %w", pl.names[i], err)
		}
	}
	return nil
}

// optimizeSource is one timed operation of the batch workloads: parse,
// every pass, print.
func (pl *pipeline) optimizeSource(src string, rec *recorder, item string) (string, error) {
	root := rec.begin("program", item, 0)
	defer rec.end(root)
	id := rec.begin("frontend.parse", item, root)
	p, err := frontend.Parse(src)
	rec.end(id)
	if err != nil {
		return "", err
	}
	if err := pl.optimize(p, rec, item, root); err != nil {
		return "", err
	}
	id = rec.begin("ir.print", item, root)
	out := ir.ToMiniF(p)
	rec.end(id)
	return out, nil
}

// verdict is the oracle's finding on one optimized program.
type verdict struct {
	ok        bool
	why       string
	benefit   float64 // share of run time saved, scalar model
	benefitMP float64 // the same, multiprocessor model
	ops       int64   // dynamic operations of the optimized program
	runTime   time.Duration
}

// oracle checks optimized programs against the reference interpreter's
// run of their originals. A repeated (original, output) pair gets the
// verdict of its first check, since the interpreter is deterministic;
// every new pair is re-parsed and executed.
type oracle struct {
	refs map[string]*interp.Result // by original source
	seen map[string]verdict        // by original source + optimized text
}

func newOracle() *oracle {
	return &oracle{refs: map[string]*interp.Result{}, seen: map[string]verdict{}}
}

func (o *oracle) ref(src string, input []ir.Value) (*interp.Result, error) {
	if r, ok := o.refs[src]; ok {
		return r, nil
	}
	p, err := frontend.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("reference parse: %w", err)
	}
	r, err := interp.Run(p, input, interp.Config{})
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	o.refs[src] = r
	return r, nil
}

// check judges out, the optimized text of original source src.
func (o *oracle) check(src string, input []ir.Value, out string) (verdict, error) {
	key := src + "\x00" + out
	if v, ok := o.seen[key]; ok {
		return v, nil
	}
	ref, err := o.ref(src, input)
	if err != nil {
		return verdict{}, err
	}
	var v verdict
	p, err := frontend.Parse(out)
	if err != nil {
		v.why = "optimized output does not parse: " + err.Error()
	} else {
		t0 := time.Now()
		res, err := interp.Run(p, input, interp.Config{})
		v.runTime = time.Since(t0)
		switch {
		case err != nil:
			v.why = "optimized output fails: " + err.Error()
		case !interp.SameOutput(ref, res):
			v.why = fmt.Sprintf("output %v, reference %v", res.Output, ref.Output)
		default:
			v.ok = true
			v.benefit = interp.Benefit(ref.Counts, res.Counts, interp.Scalar, interp.DefaultModel)
			v.benefitMP = interp.Benefit(ref.Counts, res.Counts, interp.Multiprocessor, interp.DefaultModel)
			v.ops = res.Counts.Total()
		}
	}
	o.seen[key] = v
	return v, nil
}
