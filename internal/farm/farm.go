// Package farm is the correctness burn-in subsystem: a differential
// fuzzing farm over the optimizer. It scales the internal/proggen
// generator into a streamed corpus (profiles weight the statement mix
// toward specific optimization opportunities), runs every program through
// the reference interpreter and N optimizer configurations (engines ×
// pass orders), and reports any divergence — a wrong output byte, a
// mismatched applied-action census between configurations that should
// agree, or an engine failure the reference did not have.
//
// Every finding is reproducible from a (profile, seed) pair: generation
// is a pure function of both (pinned by proggen's golden tests), so a
// finding record is small and replays anywhere. Failing programs are
// shrunk by a structure-aware minimizer (statement/span deletion plus
// loop-range reduction) that only accepts a step when the original
// divergence class still reproduces.
//
// The package is deliberately server-agnostic: optd mounts it behind
// /v1/farm and dispatches seeds as low-priority idempotent jobs; the opt
// CLI runs the same checker inline with a local worker pool (Run).
package farm

import (
	"context"

	"repro/internal/specs"
	"repro/ir"
)

// EngineInterp names the built-in execution engine: the interpreted
// closure engine (engine.Compile + ApplyAll), the same code path the
// paper's constructor drives. Other engine names resolve through
// Config.Pipelines.
const EngineInterp = "interp"

// Variant names one optimizer configuration under differential test. The
// oracle optimizes every corpus program once per variant and compares the
// results: outputs against the reference interpreter, applied-action
// censuses against every other variant that ran the same effective order.
type Variant struct {
	// Name labels the variant in divergence reports, e.g. "interp:default".
	Name string
	// Engine selects how the pass pipeline executes: "" or EngineInterp
	// for the in-process closure engine, any other name for a pipeline
	// registered in Config.Pipelines (the oracle tests register deliberately
	// wrong pipelines there).
	Engine string
	// Order, when non-empty, is this variant's explicit pass order.
	Order []string
	// Rotate, when Order is empty, rotates the checker's default order
	// left by this many passes — a cheap second ordering that exercises
	// phase interaction without advisor state.
	Rotate int
	// Auto asks Config.AutoOrder (the advisor hook) for the order; falls
	// back to the default order when the hook is absent or abstains.
	Auto bool
}

// DefaultVariants is the minimal useful configuration matrix: the
// interpreted engine under the default order and under a rotated order.
// optd adds an advisor-ordered variant for campaigns over built-in specs.
func DefaultVariants() []Variant {
	return []Variant{
		{Name: "interp:default", Engine: EngineInterp},
		{Name: "interp:rot1", Engine: EngineInterp, Rotate: 1},
	}
}

// DefaultOrder is the farm's default pass pipeline: the paper's ten
// optimizations followed by the post-paper aggregation family, so every
// built-in transformation is under differential test by default.
func DefaultOrder() []string {
	order := make([]string, 0, len(specs.Ten)+len(specs.Aggregation))
	order = append(order, specs.Ten...)
	return append(order, specs.Aggregation...)
}

// PipelineFunc runs one pass pipeline over a MiniF source and returns the
// optimized program plus the applied-action census (pass name → number of
// applications). Implementations must be safe for concurrent use; the
// farm calls them from many workers.
type PipelineFunc func(ctx context.Context, source string, order []string, maxIter int) (*ir.Program, map[string]int, error)

// Config parameterizes a Checker. The zero value selects the built-in
// spec registry, the default order and variants, and the engine/interp
// default limits.
type Config struct {
	// Sources maps spec name → GOSpeL text; nil selects specs.Sources.
	// Campaigns inject deliberately wrong specs here (the seeded-miscompile
	// oracle test) without touching the global registry.
	Sources map[string]string
	// Order is the default pass order; empty selects DefaultOrder().
	Order []string
	// Variants is the configuration matrix; empty selects DefaultVariants().
	Variants []Variant
	// MaxIterations caps applications per pass; 0 selects the engine
	// default.
	MaxIterations int
	// MaxSteps bounds each interpreter execution; 0 selects the interp
	// default.
	MaxSteps int64
	// AutoOrder, when set, resolves the order of Auto variants from the
	// program source (optd wires the pass-ordering advisor here). Returned
	// names not present in Sources are dropped.
	AutoOrder func(source string) []string
	// Pipelines maps additional engine names to their execution functions,
	// the seam through which tests inject pipelines whose census or output
	// diverges. EngineInterp is built in and need not appear.
	Pipelines map[string]PipelineFunc
}

// rotated returns order rotated left by n (n modulo len).
func rotated(order []string, n int) []string {
	if len(order) == 0 {
		return order
	}
	n = ((n % len(order)) + len(order)) % len(order)
	if n == 0 {
		return order
	}
	out := make([]string, 0, len(order))
	out = append(out, order[n:]...)
	return append(out, order[:n]...)
}
