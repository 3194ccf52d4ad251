// Package specs contains the GOSpeL specifications of the optimizations the
// paper generates optimizers for (Section 4): Copy Propagation (CPP),
// Constant Propagation (CTP), Dead Code Elimination (DCE), Invariant Code
// Motion (ICM), Loop Interchanging (INX), Loop Circulation (CRC), Bumping
// (BMP), Parallelization (PAR), Loop Unrolling (LUR) and Loop Fusion (FUS) —
// plus Constant Folding (CFO), which the paper's enablement counts refer to.
//
// CTP and INX follow the paper's Figures 1 and 2. The paper does not show
// the other specifications; they are written here from the optimizations'
// standard definitions, using the same language. Where a specification
// deviates from a figure for safety (e.g. CTP's "no other definition"
// clause matching loop-carried definitions too), the deviation is noted on
// the constant.
package specs

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/gospel"
)

// CTP is Constant Propagation, after Figure 1 of the paper. Deviations:
// the "no other definitions" clause omits the (=) direction so that
// loop-carried redefinitions also block propagation (the figure's version
// would propagate across them), and the position-match condition is spelled
// with an explicit position variable comparison.
const CTP = `
TYPE
  Stmt: Si, Sj, Sl;
PRECOND
  Code_Pattern
    /* Find a constant definition of a scalar */
    any Si: Si.opc == assign AND type(Si.opr_1) == var AND type(Si.opr_2) == const;
  Depend
    /* A use of Si's target, loop independent */
    any (Sj, pos): flow_dep(Si, Sj, (=));
    /* ... with no other definition reaching the same operand */
    no (Sl, pos2): flow_dep(Sl, Sj) AND (Si != Sl) AND (pos2 == pos);
ACTION
  /* Change the use in Sj to the constant */
  modify(operand(Sj, pos), Si.opr_2);
`

// CTPFig1 is the verbatim Figure 1 form (loop-independent '=' direction on
// the blocking clause as printed in the paper); kept for the fidelity tests
// and the generated-code golden files.
const CTPFig1 = `
TYPE
  Stmt: Si, Sj, Sl;
PRECOND
  Code_Pattern
    any Si: Si.opc == assign AND type(Si.opr_2) == const;
  Depend
    any (Sj, pos): flow_dep(Si, Sj, (=));
    no (Sl, pos2): flow_dep(Sl, Sj, (=)) AND (Si != Sl) AND (pos2 == pos);
ACTION
  modify(operand(Sj, pos), Si.opr_2);
`

// CPP is Copy Propagation: x := y, replace a use of x with y provided the
// copy is the only reaching definition and y is not redefined on any path
// from the copy to the use (the path() qualification).
const CPP = `
TYPE
  Stmt: Si, Sj, Sl, Sm;
PRECOND
  Code_Pattern
    /* Find a copy statement x := y between scalars */
    any Si: Si.opc == assign AND type(Si.opr_1) == var AND type(Si.opr_2) == var;
  Depend
    any (Sj, pos): flow_dep(Si, Sj, (=));
    no (Sl, pos2): flow_dep(Sl, Sj) AND (Si != Sl) AND (pos2 == pos);
    /* y unchanged between the copy and the use */
    no Sm: mem(Sm, path(Si, Sj)), anti_dep(Si, Sm);
ACTION
  modify(operand(Sj, pos), Si.opr_2);
`

// CFO is Constant Folding: evaluate an arithmetic statement whose source
// operands are both constants. The paper names CFO among the optimizations
// CTP enables but does not show its specification; eval() is this
// implementation's action-level extension for computing the folded value.
const CFO = `
TYPE
  Stmt: Si;
PRECOND
  Code_Pattern
    any Si: Si.kind == assign AND Si.opc != assign
      AND type(Si.opr_2) == const AND type(Si.opr_3) == const;
  Depend
ACTION
  modify(Si.opr_2, eval(Si));
  modify(Si.opc, assign);
`

// DCE is Dead Code Elimination: a scalar assignment no use ever receives a
// value from is deleted.
const DCE = `
TYPE
  Stmt: Si, Sj;
PRECOND
  Code_Pattern
    any Si: Si.kind == assign AND type(Si.opr_1) == var;
  Depend
    no Sj: flow_dep(Si, Sj);
ACTION
  delete(Si);
`

// ICM is Invariant Code Motion: hoist a scalar assignment out of a loop
// when its operands are loop invariant, it is the loop's only definition of
// its target, nothing in the loop reads the target before it, it is not
// conditionally executed, and the target is not used after the loop (which
// also makes hoisting safe for zero-trip loops).
const ICM = `
TYPE
  Stmt: Si, Sm, Sk;
  Loop: L1;
PRECOND
  Code_Pattern
    any L1;
    any Si: Si.kind == assign AND type(Si.opr_1) == var;
  Depend
    any Si: mem(Si, L1);
    /* operands computed outside the loop */
    no Sm: mem(Sm, L1), flow_dep(Sm, Si);
    no Si: flow_dep(L1.head, Si);
    /* sole, unconditioned definition with no prior uses in the loop:
       the statement's own iteration-to-iteration output dependence is
       exempt (overwriting itself is what hoisting removes), and only a
       loop-independent anti dependence — a use upward-exposed before the
       definition — blocks hoisting */
    no Sm: mem(Sm, L1),
      (out_dep(Si, Sm) OR out_dep(Sm, Si) OR anti_dep(Sm, Si, independent)) AND (Sm != Si);
    no Sm: mem(Sm, L1), ctrl_dep(Sm, Si);
    /* value not observed after the loop */
    no Sk: nmem(Sk, L1), flow_dep(Si, Sk);
ACTION
  move(Si, L1.head.prev);
`

// INX is Loop Interchanging, after Figure 2 of the paper. Deviation: the
// figure only forbids (<,>) flow dependences; interchange legality equally
// requires the absence of (<,>) anti and output dependences, so all three
// are checked.
const INX = `
TYPE
  Stmt: Sn, Sm;
  Tight Loops: (L1, L2);
PRECOND
  Code_Pattern
    /* Find two tightly nested loops */
    any (L1, L2);
  Depend
    /* Ensure invariant loop headers */
    no L1.head: flow_dep(L1.head, L2.head);
    /* No dependence with direction (<,>) */
    no (Sm, Sn): mem(Sm, L2) AND mem(Sn, L2),
      flow_dep(Sn, Sm, (<,>)) OR anti_dep(Sn, Sm, (<,>)) OR out_dep(Sn, Sm, (<,>));
ACTION
  /* Interchange heads and tails */
  move(L1.head, L2.head);
  move(L1.end, L2.end.prev);
`

// CRC is Loop Circulation: rotate a depth-3 tightly nested loop so the
// outermost loop becomes innermost ((1,2,3) → (2,3,1)). The rotation is
// illegal exactly when some dependence has a direction vector that becomes
// lexicographically negative, i.e. (<,>,*) or (<,=,>). The paper names CRC
// but shows no specification.
const CRC = `
TYPE
  Stmt: Sn, Sm;
  Tight Loops: (L1, L2), (L2, L3);
PRECOND
  Code_Pattern
    any (L1, L2);
    any (L2, L3);
  Depend
    no L1.head: flow_dep(L1.head, L2.head) OR flow_dep(L1.head, L3.head)
      OR flow_dep(L2.head, L3.head);
    no (Sm, Sn): mem(Sm, L3) AND mem(Sn, L3),
      flow_dep(Sn, Sm, (<,>,*)) OR anti_dep(Sn, Sm, (<,>,*)) OR out_dep(Sn, Sm, (<,>,*))
      OR flow_dep(Sn, Sm, (<,=,>)) OR anti_dep(Sn, Sm, (<,=,>)) OR out_dep(Sn, Sm, (<,=,>));
ACTION
  move(L1.head, L3.head);
  move(L1.end, L3.end.prev);
`

// BMP is Bumping: shift an adjacent loop's iteration range by a constant to
// align it with its predecessor (an enabler for fusion). The paper names
// BMP but shows no specification.
const BMP = `
TYPE
  Adjacent Loops: (L1, L2);
PRECOND
  Code_Pattern
    any (L1, L2): type(L1.init) == const AND type(L2.init) == const
      AND type(L1.final) == const AND type(L2.final) == const
      AND L1.step == L2.step AND L1.lcv == L2.lcv
      AND (L2.init != L1.init) AND (trip(L1) == trip(L2));
  Depend
ACTION
  forall S in L2.body do
    modify(S, subst(L2.lcv, L2.lcv + eval(L2.init - L1.init)));
  end
  modify(L2.init, L1.init);
  modify(L2.final, L1.final);
`

// PAR is Parallelization: mark a loop DOALL when it carries no flow, anti
// or output dependence at its own level. The carried(L1) qualifier is this
// implementation's extension for "dependence carried by this loop" at any
// nesting depth.
const PAR = `
TYPE
  Stmt: Sm, Sn;
  Loop: L1;
PRECOND
  Code_Pattern
    any L1: L1.kind == do;
  Depend
    no (Sm, Sn): mem(Sm, L1) AND mem(Sn, L1),
      flow_dep(Sm, Sn, carried(L1)) OR anti_dep(Sm, Sn, carried(L1))
      OR out_dep(Sm, Sn, carried(L1));
ACTION
  modify(L1.opc, doall);
`

// LUR is Loop Unrolling by two: replicate the body with the index bumped by
// one step and double the step. Constant bounds are required ("assuming
// that constant bounds are needed to unroll the loop", Section 4) and the
// trip count must be even. This is the upper-bound-first variant, which the
// paper's cost experiment found cheaper because upper bounds are more often
// variable; LURLowerFirst checks in the opposite order.
const LUR = `
TYPE
  Loop: L1;
PRECOND
  Code_Pattern
    any L1: L1.kind == do
      AND type(L1.final) == const AND type(L1.init) == const
      AND type(L1.step) == const
      AND (trip(L1) > 0) AND (trip(L1) mod 2 == 0);
  Depend
ACTION
  forall S in L1.body do
    copy(S, L1.end.prev, Sc);
    modify(Sc, subst(L1.lcv, L1.lcv + L1.step));
  end
  modify(L1.step, eval(L1.step * 2));
`

// LURLowerFirst is LUR with the bound checks in lower-bound-first order —
// the costlier specification form of the paper's E5 experiment.
const LURLowerFirst = `
TYPE
  Loop: L1;
PRECOND
  Code_Pattern
    any L1: L1.kind == do
      AND type(L1.init) == const AND type(L1.final) == const
      AND type(L1.step) == const
      AND (trip(L1) > 0) AND (trip(L1) mod 2 == 0);
  Depend
ACTION
  forall S in L1.body do
    copy(S, L1.end.prev, Sc);
    modify(Sc, subst(L1.lcv, L1.lcv + L1.step));
  end
  modify(L1.step, eval(L1.step * 2));
`

// FUS is Loop Fusion: merge two adjacent loops with identical headers when
// no dependence between the bodies would run backwards in the fused
// iteration space (the fused_dep(...) > test). The paper names FUS but
// shows no specification.
const FUS = `
TYPE
  Stmt: Sm, Sn;
  Adjacent Loops: (L1, L2);
PRECOND
  Code_Pattern
    any (L1, L2): L1.init == L2.init AND L1.final == L2.final
      AND L1.step == L2.step AND L1.lcv == L2.lcv;
  Depend
    no (Sm, Sn): mem(Sm, L1) AND mem(Sn, L2), fused_dep(Sm, Sn, L1, L2, (>));
ACTION
  forall S in L2.body do
    move(S, L1.end.prev);
  end
  delete(L2.head);
  delete(L2.end);
`

// --- the literature set ---
//
// The paper reports that "approximately twenty optimizations found in the
// literature" were specified in GOSpeL (ten of which were generated for the
// experiments). The following further specifications extend this suite the
// same way.

// SRD is strength reduction: a multiplication of a scalar by the constant 2
// becomes an addition.
const SRD = `
TYPE
  Stmt: Si;
PRECOND
  Code_Pattern
    any Si: Si.opc == mul AND type(Si.opr_2) == var AND (Si.opr_3 == 2);
  Depend
ACTION
  modify(Si.opc, add);
  modify(Si.opr_3, Si.opr_2);
`

// IDE is identity elimination: additions of 0, subtractions of 0 and
// multiplications/divisions by 1 collapse to copies.
const IDE = `
TYPE
  Stmt: Si;
PRECOND
  Code_Pattern
    any Si: (Si.opc == add AND (Si.opr_3 == 0))
      OR (Si.opc == sub AND (Si.opr_3 == 0))
      OR (Si.opc == mul AND (Si.opr_3 == 1))
      OR (Si.opc == div AND (Si.opr_3 == 1));
  Depend
ACTION
  modify(Si.opc, assign);
`

// RAE is redundant assignment elimination: a statement recomputing exactly
// an earlier statement's right-hand side, on a straight-line path with no
// intervening change to the shared operands or the earlier target, becomes
// a copy of that target. The program-order comparison (Si < Sj) is the
// appendix BNF's StmtId relop StmtId form.
const RAE = `
TYPE
  Stmt: Si, Sj, Sm;
PRECOND
  Code_Pattern
    any Si: Si.kind == assign AND Si.opc != assign AND type(Si.opr_1) == var;
  Depend
    /* a later statement with the identical right-hand side, reachable
       through straight-line code */
    any Sj: (Sj != Si) AND (Si < Sj) AND (Sj.kind == assign)
      AND (Sj.opc == Si.opc) AND (Sj.opr_2 == Si.opr_2) AND (Sj.opr_3 == Si.opr_3)
      AND ((Sj == Si.next) OR mem(Sj.prev, path(Si, Sj)));
    /* nothing between redefines the shared operands or Si's target, and no
       control structure intervenes (so Si dominates Sj) */
    no Sm: mem(Sm, path(Si, Sj)),
      anti_dep(Si, Sm) OR out_dep(Si, Sm)
      OR (Sm.kind == if) OR (Sm.kind == else) OR (Sm.kind == endif)
      OR (Sm.kind == do) OR (Sm.kind == enddo);
ACTION
  modify(Sj.opr_2, Si.opr_1);
  modify(Sj.opc, assign);
`

// LRV is loop reversal: a constant-bound, step-1 loop carrying no
// dependence runs equally well backwards. The bound swap is performed with
// the classic add/subtract exchange, since actions have no temporaries.
const LRV = `
TYPE
  Stmt: Sm, Sn;
  Loop: L1;
PRECOND
  Code_Pattern
    any L1: L1.kind == do AND type(L1.init) == const
      AND type(L1.final) == const AND (L1.step == 1);
  Depend
    no (Sm, Sn): mem(Sm, L1) AND mem(Sn, L1),
      flow_dep(Sm, Sn, carried(L1)) OR anti_dep(Sm, Sn, carried(L1))
      OR out_dep(Sm, Sn, carried(L1));
    /* the control variable's final value must not be observed afterwards
       (reversal changes it) */
    no Sm: flow_dep(L1.head, Sm) AND nmem(Sm, L1);
ACTION
  modify(L1.step, eval(0 - 1));
  modify(L1.init, eval(L1.init + L1.final));
  modify(L1.final, eval(L1.init - L1.final));
  modify(L1.init, eval(L1.init - L1.final));
`

// NRM is loop normalization: a constant-bound loop with step k > 1 is
// rewritten to run 1..trip with step 1, substituting k*i + (init − k) for
// the control variable in the body. Always legal (a bijective reindexing).
const NRM = `
TYPE
  Loop: L1;
PRECOND
  Code_Pattern
    any L1: L1.kind == do AND type(L1.init) == const
      AND type(L1.final) == const AND type(L1.step) == const
      AND (L1.step > 1);
  Depend
ACTION
  forall S in L1.body do
    modify(S, subst(L1.lcv, L1.lcv * L1.step + L1.init - L1.step));
  end
  modify(L1.final, eval((L1.final - L1.init) / L1.step + 1));
  modify(L1.init, 1);
  modify(L1.step, 1);
`

// AGG is additive aggregation, the first member of the post-paper
// straight-line aggregation family (after Gossen et al., arXiv 1912.11281):
// two adjacent updates of the same accumulator by the same additive opcode
// collapse into one, "m := m + c1; m := m + c2" becoming "m := m + (c1+c2)"
// (and likewise for sub, since x-c1-c2 = x-(c1+c2)). The itype() guard
// restricts the family to integer operands: integer addition is associative
// (including on wraparound), float addition is not, and the farm's
// differential oracle compares outputs bit-for-bit. The depend clause makes
// the intermediate value unobservable — Si's definition flows only into Sj.
const AGG = `
TYPE
  Stmt: Si, Sj, Sm;
PRECOND
  Code_Pattern
    any Si: Si.kind == assign AND ((Si.opc == add) OR (Si.opc == sub))
      AND type(Si.opr_1) == var AND itype(Si.opr_1)
      AND (Si.opr_2 == Si.opr_1)
      AND type(Si.opr_3) == const AND itype(Si.opr_3);
  Depend
    /* the immediately following statement applies the same update to the
       same accumulator */
    any Sj: (Sj == Si.next) AND (Sj.kind == assign) AND (Sj.opc == Si.opc)
      AND (Sj.opr_1 == Si.opr_1) AND (Sj.opr_2 == Si.opr_1)
      AND type(Sj.opr_3) == const AND itype(Sj.opr_3);
    /* the intermediate value is unobservable */
    no Sm: flow_dep(Si, Sm) AND (Sm != Sj);
ACTION
  modify(Sj.opr_3, eval(Si.opr_3 + Sj.opr_3));
  delete(Si);
`

// AGM is multiplicative aggregation: AGG's shape over mul, collapsing
// "m := m * c1; m := m * c2" into "m := m * (c1*c2)". Integer
// multiplication is associative even under wraparound; division is
// deliberately excluded from the family (truncation and division-by-zero
// folding break the algebra).
const AGM = `
TYPE
  Stmt: Si, Sj, Sm;
PRECOND
  Code_Pattern
    any Si: Si.kind == assign AND (Si.opc == mul)
      AND type(Si.opr_1) == var AND itype(Si.opr_1)
      AND (Si.opr_2 == Si.opr_1)
      AND type(Si.opr_3) == const AND itype(Si.opr_3);
  Depend
    any Sj: (Sj == Si.next) AND (Sj.kind == assign) AND (Sj.opc == mul)
      AND (Sj.opr_1 == Si.opr_1) AND (Sj.opr_2 == Si.opr_1)
      AND type(Sj.opr_3) == const AND itype(Sj.opr_3);
    no Sm: flow_dep(Si, Sm) AND (Sm != Sj);
ACTION
  modify(Sj.opr_3, eval(Si.opr_3 * Sj.opr_3));
  delete(Si);
`

// AGS is aggressive (straight-line) aggregation: the AGG collapse across a
// gap of unrelated statements. The partner update is reachable through
// straight-line code (the RAE path idiom), nothing on the path touches the
// accumulator, no control structure intervenes (so Si dominates Sj and both
// run under the same conditions), and the intermediate value is otherwise
// unobservable. Subsumes AGG's adjacent case; kept separate so campaigns
// can run the cheap always-on member without the path search.
const AGS = `
TYPE
  Stmt: Si, Sj, Sm;
PRECOND
  Code_Pattern
    any Si: Si.kind == assign AND ((Si.opc == add) OR (Si.opc == sub))
      AND type(Si.opr_1) == var AND itype(Si.opr_1)
      AND (Si.opr_2 == Si.opr_1)
      AND type(Si.opr_3) == const AND itype(Si.opr_3);
  Depend
    /* a later same-op update of the same accumulator, reachable through
       straight-line code */
    any Sj: (Sj != Si) AND (Si < Sj) AND (Sj.kind == assign)
      AND (Sj.opc == Si.opc)
      AND (Sj.opr_1 == Si.opr_1) AND (Sj.opr_2 == Si.opr_1)
      AND type(Sj.opr_3) == const AND itype(Sj.opr_3)
      AND ((Sj == Si.next) OR mem(Sj.prev, path(Si, Sj)));
    /* nothing between touches the accumulator and no control structure
       intervenes */
    no Sm: mem(Sm, path(Si, Sj)),
      anti_dep(Si, Sm) OR out_dep(Si, Sm)
      OR (Sm.kind == if) OR (Sm.kind == else) OR (Sm.kind == endif)
      OR (Sm.kind == do) OR (Sm.kind == enddo);
    no Sm: flow_dep(Si, Sm) AND (Sm != Sj);
ACTION
  modify(Sj.opr_3, eval(Si.opr_3 + Sj.opr_3));
  delete(Si);
`

// Sources maps optimization names to their GOSpeL text. Names follow the
// paper's abbreviations.
var Sources = map[string]string{
	"CTP":            CTP,
	"CTP_FIG1":       CTPFig1,
	"CPP":            CPP,
	"CFO":            CFO,
	"DCE":            DCE,
	"ICM":            ICM,
	"INX":            INX,
	"CRC":            CRC,
	"BMP":            BMP,
	"PAR":            PAR,
	"LUR":            LUR,
	"LUR_LOWERFIRST": LURLowerFirst,
	"FUS":            FUS,
	"SRD":            SRD,
	"IDE":            IDE,
	"RAE":            RAE,
	"LRV":            LRV,
	"NRM":            NRM,
	"AGG":            AGG,
	"AGM":            AGM,
	"AGS":            AGS,
}

// Extended lists the literature optimizations beyond the paper's ten.
var Extended = []string{"CFO", "SRD", "IDE", "RAE", "LRV", "NRM", "AGG", "AGM", "AGS"}

// Aggregation lists the post-paper straight-line aggregation family
// (Gossen et al., arXiv 1912.11281) in cheap-to-aggressive order.
var Aggregation = []string{"AGG", "AGM", "AGS"}

// Ten lists the paper's ten optimizations in the order of Section 4.
var Ten = []string{"CPP", "CTP", "DCE", "ICM", "INX", "CRC", "BMP", "PAR", "LUR", "FUS"}

// Names returns all registered specification names, sorted.
func Names() []string {
	out := make([]string, 0, len(Sources))
	for n := range Sources {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Load parses and checks the named specification.
func Load(name string) (*gospel.Spec, error) {
	src, ok := Sources[name]
	if !ok {
		return nil, fmt.Errorf("specs: unknown optimization %q", name)
	}
	return gospel.ParseAndCheck(name, src)
}

// Compile loads the named specification and compiles it into an optimizer.
func Compile(name string, opts ...engine.Option) (*engine.Optimizer, error) {
	spec, err := Load(name)
	if err != nil {
		return nil, err
	}
	return engine.Compile(spec, opts...)
}

// MustCompile is Compile, panicking on error; for tests, examples and the
// experiment harness, where the specifications are the package's own.
func MustCompile(name string, opts ...engine.Option) *engine.Optimizer {
	o, err := Compile(name, opts...)
	if err != nil {
		panic(err)
	}
	return o
}
