package optlib

import (
	"context"
	"fmt"
	"time"

	"repro/dep"
	"repro/internal/frontend"
	"repro/ir"
)

// ParseMiniF parses MiniF source into a program. It exists so generated
// optimizer binaries — which live in their own module and therefore cannot
// import repro's internal packages — can still read programs through the
// public optlib surface.
func ParseMiniF(src string) (*ir.Program, error) {
	return frontend.Parse(src)
}

// NamedApply pairs a generated optimizer's ApplyFunc with its spec name for
// pipeline reporting.
type NamedApply struct {
	Name  string
	Apply ApplyFunc
}

// PassCount reports one pipeline pass: how many applications it performed
// and how long its fixpoint ran.
type PassCount struct {
	Name         string
	Applications int
	Duration     time.Duration
}

// Pipeline runs PipelineCtx under context.Background.
func Pipeline(p *ir.Program, passes []NamedApply, lim Limits) ([]PassCount, error) {
	return PipelineCtx(context.Background(), p, passes, lim)
}

// PipelineCtx runs a sequence of generated optimizers over one program,
// each to fixpoint, sharing a single dependence graph across the whole
// pipeline: the graph is computed once up front and maintained
// incrementally from the change journal after every application and across
// pass boundaries. This is the compiled serving fast path — on multi-pass
// pipelines the per-pass dep.Compute that Fixpoint would repeat dominates
// the interpreted path's cost, and eliding it is where most of the
// compiled speedup comes from.
//
// Limits apply per pass (matching the engine's per-pass semantics). On
// error the failing pass is the last entry of the returned slice and the
// error wraps the pass name; counts for completed passes are always
// returned. FullRecompute is honored for differential runs.
func PipelineCtx(ctx context.Context, p *ir.Program, passes []NamedApply, lim Limits) ([]PassCount, error) {
	log, owned := p.EnsureLog()
	if owned {
		defer log.Detach()
	}
	g := dep.Compute(p)
	counts := make([]PassCount, 0, len(passes))
	for _, pass := range passes {
		begin := time.Now()
		n, err := fixpointShared(ctx, p, g, pass.Apply, owned, lim)
		counts = append(counts, PassCount{Name: pass.Name, Applications: n, Duration: time.Since(begin)})
		if err != nil {
			return counts, fmt.Errorf("%s: %w", pass.Name, err)
		}
	}
	return counts, nil
}

// fixpointShared is the Fig. 5 loop against a caller-maintained dependence
// graph; Fixpoint, Driver and Pipeline all run it. The journal is consumed
// (and, when owned by the caller, reset) after every application so the
// graph is valid when the next pass starts.
func fixpointShared(ctx context.Context, p *ir.Program, g *dep.Graph, apply ApplyFunc, owned bool, lim Limits) (int, error) {
	seen := map[string]bool{}
	log, _ := p.EnsureLog()
	n := 0
	for i := 0; i < lim.maxIterations(); i++ {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		start := log.Mark()
		if !apply(p, g, seen) {
			if lim.OnEvent != nil {
				lim.OnEvent(FixpointEvent{Iteration: i})
			}
			return n, nil
		}
		n++
		incremental := false
		if lim.FullRecompute {
			*g = *dep.Compute(p)
		} else {
			incremental = g.Update(log.Since(start))
		}
		if lim.OnEvent != nil {
			lim.OnEvent(FixpointEvent{Iteration: i, Applied: true, Incremental: incremental})
		}
		if owned {
			log.Reset()
		}
	}
	return n, ErrIterationLimit
}
