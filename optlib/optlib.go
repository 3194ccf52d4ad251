// Package optlib is the optimizer library of the GENesis reproduction: the
// optimization-independent routines that *generated* optimizer code calls,
// the analog of the paper's 1,873-line C library ("pattern matching
// routines, data dependence verification procedures, and code
// transformation routines", Section 3). The code emitted by
// internal/codegen imports only this package, the ir package and the dep
// package.
package optlib

import (
	"context"
	"errors"
	"fmt"
	"os"

	"repro/dep"
	"repro/internal/cfg"
	"repro/internal/frontend"
	"repro/internal/handopt"
	"repro/ir"
)

// Errors generated optimizers return to abort (and roll back) an
// application.
var (
	// ErrGone reports an action target no longer in the program.
	ErrGone = errors.New("optlib: statement no longer in program")
	// ErrNotConst reports an eval() over non-constant operands.
	ErrNotConst = errors.New("optlib: eval needs constant operands")
)

// ParseMiniF parses MiniF source into a program. Code outside the repro
// module, such as a generated optimizer built as its own module, cannot
// import repro's internal packages; this is its way to read programs.
func ParseMiniF(src string) (*ir.Program, error) {
	return frontend.Parse(src)
}

// --- pattern-matching predicates ---

// OpcIs reports whether the statement's opcode matches the GOSpeL opc
// literal (assign, add, sub, mul, div, mod; loop headers answer do/doall).
func OpcIs(s *ir.Stmt, lit string) bool {
	return opcName(s) == lit
}

// KindIs reports whether the statement's kind matches the GOSpeL kind
// literal (assign, do, doall, enddo, if, else, endif, print, read).
func KindIs(s *ir.Stmt, lit string) bool {
	return kindName(s) == lit
}

func opcName(s *ir.Stmt) string {
	if s.Kind != ir.SAssign {
		return kindName(s)
	}
	switch s.Op {
	case ir.OpCopy:
		return "assign"
	case ir.OpAdd:
		return "add"
	case ir.OpSub:
		return "sub"
	case ir.OpMul:
		return "mul"
	case ir.OpDiv:
		return "div"
	case ir.OpMod:
		return "mod"
	}
	return "?"
}

func kindName(s *ir.Stmt) string {
	switch s.Kind {
	case ir.SAssign:
		return "assign"
	case ir.SDoHead:
		if s.Parallel {
			return "doall"
		}
		return "do"
	case ir.SDoEnd:
		return "enddo"
	case ir.SIf:
		return "if"
	case ir.SElse:
		return "else"
	case ir.SEndIf:
		return "endif"
	case ir.SPrint:
		return "print"
	case ir.SRead:
		return "read"
	}
	return "?"
}

// OpcName returns the statement's GOSpeL opc literal (assign, add, ...).
func OpcName(s *ir.Stmt) string { return opcName(s) }

// KindName returns the statement's GOSpeL kind literal.
func KindName(s *ir.Stmt) string { return kindName(s) }

// OperandType returns the GOSpeL type literal of an operand: const, var,
// array or none.
func OperandType(o ir.Operand) string {
	switch o.Kind {
	case ir.Const:
		return "const"
	case ir.Var:
		return "var"
	case ir.ArrayRef:
		return "array"
	}
	return "none"
}

// Opr returns the statement's operand at the paper's position numbering
// (1 = opr_1/destination/init, 2 = opr_2/final, 3 = opr_3/step); an absent
// slot yields the empty operand.
func Opr(s *ir.Stmt, i int) ir.Operand {
	op := s.OperandSlot(i)
	if op == nil {
		return ir.None()
	}
	return *op
}

// OperandEq is structural operand equality.
func OperandEq(a, b ir.Operand) bool { return a.Equal(b) }

// IntTyped reports whether the operand is integer-typed: an integer
// constant, or a scalar/array reference declared INTEGER in p. The absent
// operand and undeclared names are not integer-typed. This backs the
// GOSpeL itype() predicate, which guards transformations (the aggregation
// family) that are only value-preserving under associative arithmetic.
func IntTyped(p *ir.Program, o ir.Operand) bool {
	switch o.Kind {
	case ir.Const:
		return !o.Val.IsFloat
	case ir.Var, ir.ArrayRef:
		d, ok := p.DeclOf(o.Name)
		return ok && !d.IsFloat
	}
	return false
}

// --- dependence helpers (the dep routine's search modes) ---

// Vec builds a direction vector from "<", ">", "=", "*", "<=", ">=", "!=".
func Vec(dirs ...string) dep.Vector {
	v := make(dep.Vector, len(dirs))
	for i, d := range dirs {
		switch d {
		case "<":
			v[i] = dep.DirLT
		case ">":
			v[i] = dep.DirGT
		case "=":
			v[i] = dep.DirEQ
		case "<=":
			v[i] = dep.DirLT | dep.DirEQ
		case ">=":
			v[i] = dep.DirGT | dep.DirEQ
		case "!=", "<>":
			v[i] = dep.DirLT | dep.DirGT
		case "=>", "=<":
			v[i] = dep.DirEQ | dep.DirGT // DirSet.String renders GT|EQ as "=>"
		default:
			v[i] = dep.DirAny
		}
	}
	return v
}

// UsePos returns the operand position of the dependence at its use end
// (DstPos for flow/output, SrcPos for anti) — the pos value GOSpeL's
// (S, pos) binding receives.
func UsePos(d dep.Dependence) int {
	if d.Kind == dep.Anti {
		return d.SrcPos
	}
	return d.DstPos
}

// CarriedBy reports a dependence of the given kind between src and dst
// carried exactly by loop l.
func CarriedBy(p *ir.Program, g *dep.Graph, kind dep.Kind, src, dst *ir.Stmt, l ir.Loop) bool {
	level := 0
	for i, cl := range ir.CommonLoops(p, src, dst) {
		if cl.Head == l.Head {
			level = i + 1
		}
	}
	if level == 0 {
		return false
	}
	for _, d := range g.Query(kind, src, dst, nil) {
		if d.Carried && d.Level == level {
			return true
		}
	}
	return false
}

// IndependentDep reports a loop-independent (not carried) dependence of
// the given kind between src and dst — the `independent` direction form.
func IndependentDep(g *dep.Graph, kind dep.Kind, src, dst *ir.Stmt) bool {
	for _, d := range g.Query(kind, src, dst, nil) {
		if !d.Carried {
			return true
		}
	}
	return false
}

// FusedDepDir reports whether fusing loops l1 and l2 would give some data
// dependence between sm and sn a direction in want.
func FusedDepDir(p *ir.Program, sm, sn *ir.Stmt, l1, l2 ir.Loop, want dep.DirSet) bool {
	return dep.FusedDirections(p, sm, sn, l1, l2).Intersect(want) != 0
}

// --- set helpers ---

// Member reports whether s is one of set's statements.
func Member(set []*ir.Stmt, s *ir.Stmt) bool {
	for _, m := range set {
		if m == s {
			return true
		}
	}
	return false
}

// Path returns the statements strictly between a and b on some
// control-flow path (the paper's path(ID, ID') predefined set).
func Path(p *ir.Program, a, b *ir.Stmt) []*ir.Stmt {
	g := cfg.Build(p)
	ai, bi := p.Index(a), p.Index(b)
	fromA := g.ReachableFrom(ai)
	toB := g.Reaches(bi)
	var out []*ir.Stmt
	for i := 0; i < p.Len(); i++ {
		if i == ai || i == bi {
			continue
		}
		if fromA[i] && toB[i] {
			out = append(out, p.At(i))
		}
	}
	return out
}

// Inter intersects two statement sets.
func Inter(a, b []*ir.Stmt) []*ir.Stmt {
	inB := map[*ir.Stmt]bool{}
	for _, s := range b {
		inB[s] = true
	}
	var out []*ir.Stmt
	for _, s := range a {
		if inB[s] {
			out = append(out, s)
		}
	}
	return out
}

// Union unions two statement sets.
func Union(a, b []*ir.Stmt) []*ir.Stmt {
	seen := map[*ir.Stmt]bool{}
	var out []*ir.Stmt
	for _, s := range append(append([]*ir.Stmt{}, a...), b...) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// --- arithmetic helpers ---

// Trip returns a loop's iteration count when all bounds are constant.
func Trip(l ir.Loop) (int64, bool) {
	h := l.Head
	if !h.Init.IsConst() || !h.Final.IsConst() || !h.Step.IsConst() {
		return 0, false
	}
	step := h.Step.Val.AsInt()
	if step == 0 {
		return 0, false
	}
	n := (h.Final.Val.AsInt()-h.Init.Val.AsInt())/step + 1
	if n < 0 {
		n = 0
	}
	return n, true
}

// ConstInt extracts an integer from a constant operand.
func ConstInt(o ir.Operand) (int64, bool) {
	if !o.IsConst() {
		return 0, false
	}
	return o.Val.AsInt(), true
}

// EvalStmt folds a binary assignment with constant operands into a constant
// operand (the eval(Si) action helper).
func EvalStmt(s *ir.Stmt) (ir.Operand, bool) {
	if s.Kind != ir.SAssign || s.Op == ir.OpCopy || !s.A.IsConst() || !s.B.IsConst() {
		return ir.Operand{}, false
	}
	return ir.ConstOp(ir.Arith(s.Op, s.A.Val, s.B.Val)), true
}

// EvalArith folds "a op b" over constant operands (the eval(x op y) form).
func EvalArith(op string, a, b ir.Operand) (ir.Operand, bool) {
	x, okA := ConstInt(a)
	y, okB := ConstInt(b)
	if !okA || !okB {
		return ir.Operand{}, false
	}
	switch op {
	case "+":
		return ir.IntOp(x + y), true
	case "-":
		return ir.IntOp(x - y), true
	case "*":
		return ir.IntOp(x * y), true
	case "/":
		if y == 0 {
			return ir.Operand{}, false
		}
		return ir.IntOp(x / y), true
	case "mod":
		if y == 0 {
			return ir.Operand{}, false
		}
		return ir.IntOp(x % y), true
	}
	return ir.Operand{}, false
}

// --- transformation primitives ---

// ModifyOperand replaces the statement's operand at pos.
func ModifyOperand(s *ir.Stmt, pos int, newOp ir.Operand) error {
	slot := s.OperandSlot(pos)
	if slot == nil {
		return fmt.Errorf("optlib: S%d has no operand %d", s.ID, pos)
	}
	ir.NoteModify(s)
	*slot = newOp.Clone()
	return nil
}

// ModifyOpc assigns a new opcode or loop kind literal.
func ModifyOpc(s *ir.Stmt, lit string) error {
	ir.NoteModify(s)
	switch lit {
	case "assign":
		if s.Kind != ir.SAssign {
			return fmt.Errorf("optlib: %s is not an assignment", kindName(s))
		}
		s.Op = ir.OpCopy
		s.B = ir.None()
	case "add", "sub", "mul", "div", "mod":
		if s.Kind != ir.SAssign {
			return fmt.Errorf("optlib: %s is not an assignment", kindName(s))
		}
		switch lit {
		case "add":
			s.Op = ir.OpAdd
		case "sub":
			s.Op = ir.OpSub
		case "mul":
			s.Op = ir.OpMul
		case "div":
			s.Op = ir.OpDiv
		case "mod":
			s.Op = ir.OpMod
		}
	case "doall":
		if s.Kind != ir.SDoHead {
			return fmt.Errorf("optlib: doall applies to loop headers")
		}
		s.Parallel = true
	case "do":
		if s.Kind != ir.SDoHead {
			return fmt.Errorf("optlib: do applies to loop headers")
		}
		s.Parallel = false
	default:
		return fmt.Errorf("optlib: unknown opcode literal %q", lit)
	}
	return nil
}

// SubstStmt rewrites occurrences of variable v in s by the affine
// expression repl (the modify(S, subst(v, e)) action). The pre-image is
// journaled first: substitution can fail midway through a statement.
func SubstStmt(s *ir.Stmt, v string, repl ir.LinExpr) error {
	ir.NoteModify(s)
	return handopt.SubstVarStmt(s, v, repl)
}

// Substitutable reports whether SubstStmt would succeed.
func Substitutable(s *ir.Stmt, v string, repl ir.LinExpr) bool {
	return handopt.Substitutable(s, v, repl)
}

// LinVar / LinConst / LinAdd / LinSub build affine expressions in generated
// code.
func LinVar(name string) ir.LinExpr     { return ir.VarExpr(name) }
func LinConst(c int64) ir.LinExpr       { return ir.ConstExpr(c) }
func LinAdd(a, b ir.LinExpr) ir.LinExpr { return a.Add(b) }
func LinSub(a, b ir.LinExpr) ir.LinExpr { return a.Sub(b) }

// LinMul multiplies two affine expressions when at least one side is
// constant (the product stays affine); otherwise it reports failure.
func LinMul(a, b ir.LinExpr) (ir.LinExpr, bool) {
	if a.IsConst() {
		return b.Scale(a.Normalize().Const), true
	}
	if b.IsConst() {
		return a.Scale(b.Normalize().Const), true
	}
	return ir.LinExpr{}, false
}

// Dir builds a single direction set from its string form ("<", ">", "=",
// "*", "<=", ">=", "<>", "!=").
func Dir(s string) dep.DirSet {
	return Vec(s)[0]
}

// --- the driver (paper Fig. 5) ---

// ApplyFunc is one generated optimizer's search-and-apply step: find the
// first application point not in seen, apply the actions there, and report
// whether an application happened.
type ApplyFunc func(p *ir.Program, g *dep.Graph, seen map[string]bool) bool

// DefaultMaxIterations is the fixpoint iteration cap used when Limits leaves
// MaxIterations zero.
const DefaultMaxIterations = 1000

// ErrIterationLimit reports that a fixpoint run stopped at its iteration cap
// rather than converging. The application count up to the cap is still
// returned alongside it.
var ErrIterationLimit = errors.New("optlib: fixpoint iteration limit reached without convergence")

// Limits configures a Fixpoint run. The zero value selects
// DefaultMaxIterations.
type Limits struct {
	// MaxIterations bounds the fixpoint loop; 0 means DefaultMaxIterations.
	MaxIterations int
}

// Fixpoint runs the Fig. 5 loop to fixpoint: search, apply, refresh
// dependences, until no new application point exists. It returns the number
// of applications performed and ErrIterationLimit when the iteration cap was
// reached before convergence (a non-converging rewrite system, or a cap set
// too low for the program).
//
// The dependence graph is maintained incrementally across applications via
// the program's change journal; failed attempts inside apply roll back
// through the same journal, so the graph stays valid without any per-attempt
// recomputation.
func Fixpoint(p *ir.Program, apply ApplyFunc, lim Limits) (int, error) {
	return FixpointCtx(context.Background(), p, apply, lim)
}

// FixpointCtx is Fixpoint under a context: the loop checks ctx between
// iterations and stops early with ctx.Err() when the context is cancelled or
// its deadline passes. The application count up to the stop is returned; the
// program is left in its partially-optimized (but structurally valid) state.
func FixpointCtx(ctx context.Context, p *ir.Program, apply ApplyFunc, lim Limits) (int, error) {
	log, owned := p.EnsureLog()
	if owned {
		defer log.Detach()
	}
	limit := lim.MaxIterations
	if limit <= 0 {
		limit = DefaultMaxIterations
	}
	g := dep.Compute(p)
	seen := map[string]bool{}
	n := 0
	for i := 0; i < limit; i++ {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		start := log.Mark()
		if !apply(p, g, seen) {
			return n, nil
		}
		n++
		g.Update(log.Since(start))
		if owned {
			log.Reset()
		}
	}
	return n, ErrIterationLimit
}

// Sig2 / Sig3 / SigN build application-point signatures matching the
// engine's value-set convention.
func SigN(parts ...string) string {
	// insertion sort (tiny n)
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && parts[j] < parts[j-1]; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
		}
	}
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ";"
		}
		out += p
	}
	return out
}

// SigStmt / SigLoop / SigNum render one binding for SigN.
func SigStmt(s *ir.Stmt) string { return fmt.Sprintf("S%d", s.ID) }
func SigLoop(l ir.Loop) string  { return fmt.Sprintf("L%d", l.Head.ID) }
func SigNum(n int) string       { return fmt.Sprintf("%d", n) }

// SigSet renders a statement-set binding as its sorted member IDs, matching
// the engine's convention. Rendering the members (not just the size) keeps
// two distinct sets of equal cardinality from colliding to one signature.
func SigSet(set []*ir.Stmt) string {
	ids := make([]int, 0, len(set))
	for _, s := range set {
		if s != nil {
			ids = append(ids, s.ID)
		}
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	out := "set{"
	for i, id := range ids {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("S%d", id)
	}
	return out + "}"
}

// Main is the generated optimizer's command-line entry point: read a MiniF
// source file, run the optimizer to fixpoint, print the optimized program
// and the application count.
func Main(name string, apply ApplyFunc) {
	if len(os.Args) < 2 {
		fmt.Fprintf(os.Stderr, "usage: %s <program.mf>\n", name)
		os.Exit(2)
	}
	src, err := os.ReadFile(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	p, err := frontend.Parse(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	n, err := Fixpoint(p, apply, Limits{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	}
	fmt.Printf("! %s: %d application(s)\n", name, n)
	fmt.Print(p.String())
}
