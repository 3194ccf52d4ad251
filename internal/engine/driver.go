package engine

import (
	stdcontext "context"
	"fmt"
	"time"

	"repro/dep"
	"repro/internal/obs"
	"repro/ir"
	"repro/optlib"
)

// pointSig renders the role-blind signature of search frames into
// reusable storage, so the driver's already-applied check allocates
// nothing.
type pointSig struct {
	buf []byte
	sc  sigScratch
}

func (s *pointSig) of(f *frame) []byte {
	s.buf = appendSignature(s.buf[:0], f.vals, &s.sc)
	return s.buf
}

// firstFresh searches for the first binding whose signature is not in seen
// and copies it into chosen; sig then holds its signature.
func (o *Optimizer) firstFresh(ctx *context, seen map[string]bool, sig *pointSig, chosen *frame) bool {
	found := false
	o.search(ctx, func(f *frame) bool {
		if seen[string(sig.of(f))] {
			return true // keep searching
		}
		chosen.copyFrom(f)
		found = true
		return false
	})
	return found
}

// Application describes one performed application of an optimization.
type Application struct {
	Spec      string
	Signature string
}

// Signature renders an application point's stable identity string — the
// key ApplyAll deduplicates on, over the *set* of bound values (see
// appendSignature). Exported for callers (interactive sessions, services)
// that track skipped or applied points across calls.
func Signature(e Env) string {
	vals := make([]Value, 0, len(e))
	for _, v := range e {
		vals = append(vals, v)
	}
	return string(appendSignature(nil, vals, &sigScratch{}))
}

// ApplyOnce runs the Fig. 5 driver once: search for the first application
// point and apply the actions there. It computes its own dependence graph.
// Returns whether an application was performed.
func (o *Optimizer) ApplyOnce(p *ir.Program) (bool, error) {
	return o.ApplyOnceWith(p, dep.Compute(p))
}

// ApplyOnceWith is ApplyOnce against a caller-provided dependence graph
// (which must describe p's current state).
func (o *Optimizer) ApplyOnceWith(p *ir.Program, g *dep.Graph) (bool, error) {
	ctx := o.newContext(p, g)
	f, ok := o.findFirst(ctx)
	if !ok {
		return false, nil
	}
	if err := o.applyAt(ctx, f); err != nil {
		return false, err
	}
	return true, nil
}

// ApplyAll repeatedly finds and applies application points until none
// remain, maintaining the dependence graph between applications when
// RecomputeDeps is set — incrementally through the change journal by
// default, or from scratch per application with WithoutIncremental. A point
// signature is applied at most once, which terminates otherwise self-inverse
// transformations such as loop interchange. Returns the list of performed
// applications. Hitting MaxApplications while another fresh point remains
// returns the applications performed so far alongside
// optlib.ErrIterationLimit.
func (o *Optimizer) ApplyAll(p *ir.Program) ([]Application, error) {
	return o.ApplyAllCtx(stdcontext.Background(), p)
}

// ApplyAllCtx is ApplyAll under a context: the driver loop checks ctx
// between applications and stops early with ctx.Err() when the context is
// cancelled or its deadline passes, returning the applications already
// performed. The program is left in its partially-optimized (structurally
// valid) state. It computes its own dependence graph.
func (o *Optimizer) ApplyAllCtx(ctx stdcontext.Context, p *ir.Program) ([]Application, error) {
	apps, _, err := o.ApplyAllWith(ctx, p, nil)
	return apps, err
}

// ApplyAllWith is ApplyAllCtx against a caller-provided dependence graph,
// which must describe p's current state; nil computes one. It returns the
// graph that describes p afterwards, so a pass pipeline hands it to the
// next pass instead of recomputing it: the maintained graph itself, the
// last fresh one under WithoutIncremental, or nil when a pass run
// WithoutRecompute applied anything and so left the graph stale.
func (o *Optimizer) ApplyAllWith(ctx stdcontext.Context, p *ir.Program, g *dep.Graph) (apps []Application, out *dep.Graph, err error) {
	traced := o.Tracer.Enabled()
	root := o.Tracer.Start("pass", obs.String("spec", o.Spec.Name))
	var done []Application
	seen := map[string]bool{}
	log, owned := p.EnsureLog()
	if owned {
		defer log.Detach()
	}
	if g == nil {
		g = dep.Compute(p)
	}
	// depAcc accumulates the stats of graphs already replaced by a full
	// recomputation (WithoutIncremental mode). It starts at minus the
	// incoming graph's counters, so the pass reports only its own traffic.
	depAcc := dep.Stats{}.Sub(g.Stats())
	if o.OnPassDone != nil || o.OnPassStats != nil || traced {
		t0 := time.Now()
		costBase := o.cost
		rollbackBase := log.Rollbacks()
		defer func() {
			d := time.Since(t0)
			if err != nil {
				root.Set("error", err.Error())
			}
			root.Set("applications", len(apps))
			root.End()
			if o.OnPassDone != nil {
				o.OnPassDone(o.Spec.Name, len(apps), d)
			}
			if o.OnPassStats != nil {
				c, st := o.cost, depAcc.Add(g.Stats())
				o.OnPassStats(obs.PassStats{
					Spec:               o.Spec.Name,
					Applications:       len(apps),
					Duration:           d,
					PatternChecks:      int64(c.PatternChecks - costBase.PatternChecks),
					DepChecks:          int64(c.DepChecks - costBase.DepChecks),
					ScalarLookups:      st.ScalarLookups,
					ArrayLookups:       st.ArrayLookups,
					ControlLookups:     st.ControlLookups,
					IncrementalUpdates: st.IncrementalUpdates,
					StructuralRebuilds: st.StructuralRebuilds,
					Rollbacks:          log.Rollbacks() - rollbackBase,
				})
			}
		}()
	}
	ectx := o.newContext(p, g)
	var chosen frame
	var psig pointSig
	for {
		if err := ctx.Err(); err != nil {
			return done, o.graphAfter(g, done), err
		}
		ectx.graph = g
		var searchStart time.Time
		var costPre Cost
		var statsPre dep.Stats
		if traced {
			ectx.timed = true
			searchStart = time.Now()
			costPre = o.cost
			statsPre = g.Stats()
		}
		found := o.firstFresh(ectx, seen, &psig, &chosen)
		var searchDur, depDur time.Duration
		var costPost Cost
		var statsPost dep.Stats
		if traced {
			searchDur = time.Since(searchStart)
			depDur = time.Duration(ectx.depNS)
			costPost = o.cost
			statsPost = g.Stats()
		}
		if !found {
			if traced {
				// The terminating search: the pass reached its fixpoint.
				sp := root.Child("search", obs.Bool("found", false))
				setSearchAttrs(sp, costPost, costPre, statsPost.Sub(statsPre))
				sp.EndWith(searchDur)
			}
			break
		}
		if len(done) >= o.MaxApplications {
			// A fresh point exists beyond the cap: a non-converging rewrite
			// system or a cap set too low for the program.
			return done, o.graphAfter(g, done), optlib.ErrIterationLimit
		}
		sig := string(psig.buf)
		seen[sig] = true
		var pt, act *obs.Span
		var actStart time.Time
		var rbPre int64
		if traced {
			pt = root.Child("point", obs.Int("index", len(done)), obs.String("sig", sig))
			m := pt.Child("match",
				obs.Int64("pattern_checks", int64(costPost.PatternChecks-costPre.PatternChecks)))
			m.EndWith(searchDur - depDur)
			ds := statsPost.Sub(statsPre)
			dsp := pt.Child("depend",
				obs.Int64("dep_checks", int64(costPost.DepChecks-costPre.DepChecks)),
				obs.Int64("scalar_lookups", ds.ScalarLookups),
				obs.Int64("array_lookups", ds.ArrayLookups),
				obs.Int64("control_lookups", ds.ControlLookups))
			dsp.EndWith(depDur)
			act = pt.Child("action")
			actStart = time.Now()
			rbPre = log.Rollbacks()
		}
		start := log.Mark()
		if aerr := o.applyAt(ectx, &chosen); aerr != nil {
			// The actions could not be applied at this point (e.g. an
			// unrepresentable substitution). The undo log rolled the program
			// back in place, preserving statement identity, so the graph is
			// still valid — keep searching with it as-is.
			if traced {
				act.Set("applied", false)
				act.Set("rollbacks", log.Rollbacks()-rbPre)
				act.Set("error", aerr.Error())
				act.EndWith(time.Since(actStart))
				pt.End()
			}
			continue
		}
		act.Set("applied", true)
		done = append(done, Application{Spec: o.Spec.Name, Signature: sig})
		// The dependence refresh is its own span under the action, so its
		// cost is visible apart from the rewrite's while the action span
		// still covers both.
		upd := act.Child("dep_update")
		mode := "none"
		if o.RecomputeDeps {
			if !o.IncrementalDeps {
				depAcc = depAcc.Add(g.Stats())
				g = dep.Compute(p)
				mode = "full"
			} else if g.Update(log.Since(start)) {
				mode = "incremental"
			} else {
				mode = "structural"
			}
		}
		if traced {
			upd.Set("mode", mode)
			upd.End()
			act.EndWith(time.Since(actStart))
			pt.End()
		}
		if owned {
			// The journal's changes are consumed; keep it from growing
			// across a long fixpoint run. (A caller-attached journal is left
			// intact — its owner decides when to consume it.)
			log.Reset()
		}
	}
	return done, o.graphAfter(g, done), nil
}

// graphAfter is the graph ApplyAllWith hands back: g, or nil when the pass
// ran WithoutRecompute and its applications left g stale.
func (o *Optimizer) graphAfter(g *dep.Graph, done []Application) *dep.Graph {
	if !o.RecomputeDeps && len(done) > 0 {
		return nil
	}
	return g
}

// setSearchAttrs annotates a search span with the precondition-check and
// dependence-lookup deltas of one full search.
func setSearchAttrs(sp *obs.Span, post, pre Cost, ds dep.Stats) {
	sp.Set("pattern_checks", int64(post.PatternChecks-pre.PatternChecks))
	sp.Set("dep_checks", int64(post.DepChecks-pre.DepChecks))
	sp.Set("scalar_lookups", ds.ScalarLookups)
	sp.Set("array_lookups", ds.ArrayLookups)
	sp.Set("control_lookups", ds.ControlLookups)
}

// ApplyAt applies the optimizer's actions at a specific, already-found
// application point (the paper's "perform an optimization at one
// application point", possibly overriding dependence restrictions — the
// caller may pass any binding, checked or not).
func (o *Optimizer) ApplyAt(p *ir.Program, g *dep.Graph, env Env) error {
	ctx := o.newContext(p, g)
	return o.applyAt(ctx, o.frameOf(env))
}

// applyAt executes the action section under the bindings of f, which the
// actions extend with the names they bind, with rollback on failure.
// Instead of snapshotting the whole program (the seed's Clone/CopyFrom,
// O(n) per attempt), it journals the executed primitives and replays them
// backwards on failure — O(|edits|) — leaving every untouched statement
// pointer-identical so the caller's dependence graph stays valid.
func (o *Optimizer) applyAt(ctx *context, f *frame) error {
	log, owned := ctx.prog.EnsureLog()
	if owned {
		defer log.Detach()
	}
	mark := log.Mark()
	if err := o.execActions(ctx, f, o.Spec.Actions); err != nil {
		log.UndoTo(mark)
		return err
	}
	if err := ctx.prog.Validate(); err != nil {
		log.UndoTo(mark)
		return fmt.Errorf("engine: %s actions broke program structure: %w", o.Spec.Name, err)
	}
	return nil
}
