package engine

import (
	stdcontext "context"
	"errors"
	"sync/atomic"
	"time"

	"repro/dep"
	"repro/internal/gospel"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/region"
	"repro/ir"
	"repro/optlib"
)

// RegionReport describes how one region-parallel pass executed.
type RegionReport struct {
	// Workers is the resolved worker count (par.Workers of the request).
	Workers int
	// Regions is the partition size the partitioner produced for the
	// program at pass entry; 1 means the dependence relation does not
	// split it.
	Regions int
	// Sharded reports that the pass ran the whole program with a sharded
	// candidate search (because the program did not partition, the spec
	// was not region-eligible, or the partitioned attempt fell back).
	Sharded bool
	// Fallback reports that a partitioned attempt was abandoned (a region
	// hit the application cap, so only a whole-program run can decide
	// where the cap cuts) and the pass re-ran on the untouched program.
	Fallback bool
}

// ApplyAllRegions is ApplyAllCtx with intra-program parallelism. The
// output program is byte-identical to the sequential driver at every
// worker count:
//
//   - When the dependence partitioner splits the program and the spec is
//     region-eligible, each region runs its own fixpoint on a private
//     sub-program with a private journal, and the results are spliced
//     back in region-index order (Tier A). Sequential search order is
//     position-ordered, so on non-interacting regions the sequential
//     driver is region 0's fixpoint, then region 1's, …, which is exactly
//     the merge order.
//   - Otherwise the sequential driver loop runs with its candidate search
//     sharded across workers; the globally smallest candidate index wins,
//     which is the binding the sequential scan finds (Tier B).
//
// workers < 1 selects GOMAXPROCS; workers == 1 is exactly ApplyAllCtx.
func (o *Optimizer) ApplyAllRegions(ctx stdcontext.Context, p *ir.Program, workers int) ([]Application, RegionReport, error) {
	w := par.Workers(workers)
	if w <= 1 {
		apps, err := o.ApplyAllCtx(ctx, p)
		return apps, RegionReport{Workers: 1, Regions: 1}, err
	}
	g := dep.Compute(p)
	pt := region.Compute(p, g)
	rep := RegionReport{Workers: w, Regions: pt.Len()}
	if pt.Len() >= 2 && region.EligibleSpec(o.Spec) {
		apps, ok, err := o.applyRegions(ctx, p, pt, w)
		if err != nil {
			return apps, rep, err
		}
		if ok {
			return apps, rep, nil
		}
		rep.Fallback = true
	}
	rep.Sharded = true
	apps, err := o.applySharded(ctx, p, w)
	return apps, rep, err
}

// applyRegions runs one private fixpoint per region (Tier A). ok=false
// with a nil error asks the caller to rerun on the (untouched) program.
func (o *Optimizer) applyRegions(ctx stdcontext.Context, p *ir.Program, pt region.Partition, workers int) (apps []Application, ok bool, err error) {
	t0 := time.Now()
	n := pt.Len()
	perApps := make([][]Application, n)
	perStats := make([]obs.PassStats, n)
	perCost := make([]Cost, n)
	perDur := make([]time.Duration, n)
	run := func(i int, sub *ir.Program) (int, error) {
		r0 := time.Now()
		// A private optimizer per region: same compiled plan, but private
		// cost counters and no hooks — the pass-level hooks fire once, on
		// the merged result.
		o2 := &Optimizer{
			Spec:            o.Spec,
			plan:            o.plan,
			Strategy:        o.Strategy,
			RecomputeDeps:   o.RecomputeDeps,
			IncrementalDeps: o.IncrementalDeps,
			MaxApplications: o.MaxApplications,
		}
		if o.OnPassStats != nil {
			o2.OnPassStats = func(ps obs.PassStats) { perStats[i] = ps }
		}
		a, aerr := o2.ApplyAllCtx(ctx, sub)
		perApps[i] = a
		perCost[i] = o2.cost
		perDur[i] = time.Since(r0)
		return len(a), aerr
	}
	out, xerr := region.Execute(p, pt, workers, o.MaxApplications, run)
	if xerr != nil {
		if errors.Is(xerr, optlib.ErrIterationLimit) {
			return nil, false, nil
		}
		return nil, false, xerr
	}
	if out.Fallback {
		return nil, false, nil
	}
	for i := 0; i < n; i++ {
		o.cost.Add(perCost[i])
		apps = append(apps, perApps[i]...)
	}
	d := time.Since(t0)
	if o.Tracer.Enabled() {
		root := o.Tracer.Start("pass", obs.String("spec", o.Spec.Name))
		root.Set("parallel_workers", workers)
		root.Set("regions", n)
		root.Set("applications", len(apps))
		for i, r := range pt.Regions {
			sp := root.Child("region",
				obs.Int("index", i),
				obs.Int("start", r.Start),
				obs.Int("end", r.End),
				obs.Int("applications", len(perApps[i])))
			sp.EndWith(perDur[i])
		}
		root.EndWith(d)
	}
	if o.OnPassDone != nil {
		o.OnPassDone(o.Spec.Name, len(apps), d)
	}
	if o.OnPassStats != nil {
		sum := obs.PassStats{Spec: o.Spec.Name, Applications: len(apps), Duration: d}
		for _, ps := range perStats {
			sum.PatternChecks += ps.PatternChecks
			sum.DepChecks += ps.DepChecks
			sum.ScalarLookups += ps.ScalarLookups
			sum.ArrayLookups += ps.ArrayLookups
			sum.ControlLookups += ps.ControlLookups
			sum.IncrementalUpdates += ps.IncrementalUpdates
			sum.StructuralRebuilds += ps.StructuralRebuilds
			sum.Rollbacks += ps.Rollbacks
		}
		o.OnPassStats(sum)
	}
	return apps, true, nil
}

// applySharded runs the sequential driver loop with each iteration's
// candidate search fanned out across workers (Tier B). Applications
// happen one at a time on the caller's program, so the journal, the seen
// set and the dependence graph evolve exactly as in ApplyAllCtx.
func (o *Optimizer) applySharded(ctx stdcontext.Context, p *ir.Program, workers int) (apps []Application, err error) {
	traced := o.Tracer.Enabled()
	root := o.Tracer.Start("pass",
		obs.String("spec", o.Spec.Name), obs.Int("shard_workers", workers))
	var done []Application
	seen := map[string]bool{}
	log, owned := p.EnsureLog()
	if owned {
		defer log.Detach()
	}
	g := dep.Compute(p)
	g.SetWorkers(workers)
	var depAcc dep.Stats
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
	for {
		if cerr := ctx.Err(); cerr != nil {
			return done, cerr
		}
		chosen, found := o.searchSharded(p, g, seen, workers)
		if !found {
			break
		}
		if len(done) >= o.MaxApplications {
			return done, optlib.ErrIterationLimit
		}
		var psig pointSig
		sig := string(psig.of(chosen))
		seen[sig] = true
		ectx := o.newContext(p, g)
		start := log.Mark()
		if aerr := o.applyAt(ectx, chosen); aerr != nil {
			// Rolled back in place; the graph is still valid — keep going.
			continue
		}
		if traced {
			sp := root.Child("point",
				obs.Int("index", len(done)), obs.String("sig", sig))
			sp.End()
		}
		done = append(done, Application{Spec: o.Spec.Name, Signature: sig})
		if o.RecomputeDeps {
			if o.IncrementalDeps {
				g.Update(log.Since(start))
			} else {
				depAcc = depAcc.Add(g.Stats())
				g = dep.Compute(p)
				g.SetWorkers(workers)
			}
		}
		if owned {
			log.Reset()
		}
	}
	return done, nil
}

// searchSharded finds the first fresh application point — the same one
// the sequential search finds — by splitting the first pattern clause's
// candidate list into contiguous shards scanned concurrently. Candidates
// are enumerated once in program order; each worker reports the first
// fresh binding in its shard over a private graph shadow and cost
// counter, and the globally smallest candidate index wins. Sequential
// first-match order is lexicographic in (candidate index, subtree
// enumeration order), so the winner is exactly the sequential result.
// The seen set is only read here; the driver loop writes it between
// searches. An atomic high-water mark lets shards abandon candidates
// beyond an already-found index — it prunes work but cannot change the
// winner.
func (o *Optimizer) searchSharded(p *ir.Program, g *dep.Graph, seen map[string]bool, workers int) (*frame, bool) {
	if len(o.Spec.Patterns) == 0 {
		return o.searchSeq(p, g, seen)
	}
	pc, slots := o.Spec.Patterns[0], o.plan.pat[0]
	if pc.Quant == gospel.QAll {
		// The clause binds one set over the whole program; there is no
		// candidate list to shard.
		return o.searchSeq(p, g, seen)
	}
	ectx := o.newContext(p, g)
	ectx.beginSearch()
	defer ectx.endSearch()
	cands := ectx.domain(slots)
	if cands.len() < 2*workers {
		return o.searchSeq(p, g, seen)
	}
	type shard struct {
		idx   int
		f     frame
		cost  Cost
		stats dep.Stats
	}
	var best atomic.Int64
	best.Store(int64(cands.len()))
	results := par.Map(workers, workers, func(s int) shard {
		lo := s * cands.len() / workers
		hi := (s + 1) * cands.len() / workers
		res := shard{idx: -1}
		sg := g.Shadow()
		wctx := &context{prog: p, graph: sg, cost: &res.cost, opt: o}
		wctx.beginSearch()
		var psig pointSig
		for i := lo; i < hi; i++ {
			if int64(i) >= best.Load() {
				break
			}
			bound, _ := wctx.bindCandidate(cands, slots, i)
			hit := false
			if pc.Format == nil || wctx.patternHolds(pc.Format) {
				o.matchPattern(wctx, 1, func(f *frame) bool {
					if seen[string(psig.of(f))] {
						return true
					}
					res.idx = i
					res.f.copyFrom(f)
					hit = true
					return false
				})
			}
			wctx.f.unbind(bound)
			if hit {
				for {
					b := best.Load()
					if int64(i) >= b || best.CompareAndSwap(b, int64(i)) {
						break
					}
				}
				break
			}
		}
		wctx.endSearch()
		res.stats = sg.Stats()
		return res
	})
	win := -1
	for i := range results {
		o.cost.Add(results[i].cost)
		g.AddStats(results[i].stats)
		if results[i].idx >= 0 && (win < 0 || results[i].idx < results[win].idx) {
			win = i
		}
	}
	if win < 0 {
		return nil, false
	}
	return &results[win].f, true
}

// searchSeq is one sequential first-fresh-match search, used when the
// candidate list is too small (or unshardable) to be worth fanning out.
func (o *Optimizer) searchSeq(p *ir.Program, g *dep.Graph, seen map[string]bool) (*frame, bool) {
	chosen := &frame{}
	if !o.firstFresh(o.newContext(p, g), seen, &pointSig{}, chosen) {
		return nil, false
	}
	return chosen, true
}
