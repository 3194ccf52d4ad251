// Package engine is the GENesis core: it compiles a checked GOSpeL
// specification into an executable optimizer and provides the driver of the
// paper's Figure 5. An optimizer runs in four phases exactly as the
// generated code of the paper does — set_up (element table), match (code
// pattern search), pre (dependence verification) and act (transformation
// primitives) — backed by the optimization-independent library: element
// finders, the dependence query routine (Fig. 7), and the five primitive
// actions.
package engine

import (
	"fmt"

	"repro/ir"
)

// VKind tags the runtime values GOSpeL expressions evaluate to.
type VKind int

const (
	VNone VKind = iota
	VStmt
	VLoop
	VSet
	VOperand
	VNum
	VBool
	VLit   // opcode / statement-kind / operand-type literal
	VSubst // subst(...) descriptor, consumed by modify
)

// Value is one GOSpeL runtime value.
type Value struct {
	Kind  VKind
	Stmt  *ir.Stmt
	Loop  ir.Loop
	Set   []*ir.Stmt
	Op    ir.Operand
	Num   int64
	Bool  bool
	Lit   string
	Subst *SubstVal
}

// SubstVal describes a variable substitution v ← Repl applied to a
// statement by modify(S, subst(v, expr)).
type SubstVal struct {
	Var  string
	Repl ir.LinExpr
}

func stmtVal(s *ir.Stmt) Value   { return Value{Kind: VStmt, Stmt: s} }
func loopVal(l ir.Loop) Value    { return Value{Kind: VLoop, Loop: l} }
func setVal(s []*ir.Stmt) Value  { return Value{Kind: VSet, Set: s} }
func opVal(o ir.Operand) Value   { return Value{Kind: VOperand, Op: o} }
func numVal(n int64) Value       { return Value{Kind: VNum, Num: n} }
func boolVal(b bool) Value       { return Value{Kind: VBool, Bool: b} }
func litVal(s string) Value      { return Value{Kind: VLit, Lit: s} }
func substVal(s *SubstVal) Value { return Value{Kind: VSubst, Subst: s} }

func (v Value) String() string {
	switch v.Kind {
	case VStmt:
		if v.Stmt == nil {
			return "<nil stmt>"
		}
		return fmt.Sprintf("S%d", v.Stmt.ID)
	case VLoop:
		return fmt.Sprintf("loop(%s)", v.Loop.LCV())
	case VSet:
		return fmt.Sprintf("set[%d]", len(v.Set))
	case VOperand:
		return v.Op.String()
	case VNum:
		return fmt.Sprintf("%d", v.Num)
	case VBool:
		return fmt.Sprintf("%t", v.Bool)
	case VLit:
		return v.Lit
	case VSubst:
		return fmt.Sprintf("subst(%s, %s)", v.Subst.Var, v.Subst.Repl)
	}
	return "<none>"
}

// Env is one application point's bindings by name: element variables and
// position variables. It is only the type at the package boundary
// (Preconditions, ApplyAt, Signature, interactive sessions): the search
// itself binds into a slot-indexed frame laid out at Compile and converts
// to an Env only when it yields a point to a caller.
type Env map[string]Value

// Cost tallies the work an optimizer performs, in the units the paper uses
// for its cost experiments: the number of checks needed to determine
// preconditions and the number of operations used to apply the
// transformation (Section 4).
type Cost struct {
	PatternChecks int // code-pattern format predicate evaluations
	DepChecks     int // dependence condition evaluations
	MemChecks     int // set-membership evaluations
	ActionOps     int // primitive transformation operations executed
}

// Add accumulates o into c.
func (c *Cost) Add(o Cost) {
	c.PatternChecks += o.PatternChecks
	c.DepChecks += o.DepChecks
	c.MemChecks += o.MemChecks
	c.ActionOps += o.ActionOps
}

// Checks returns the total precondition checks.
func (c Cost) Checks() int { return c.PatternChecks + c.DepChecks + c.MemChecks }

// Total returns checks plus transformation operations.
func (c Cost) Total() int { return c.Checks() + c.ActionOps }

func (c Cost) String() string {
	return fmt.Sprintf("pattern=%d dep=%d mem=%d actions=%d",
		c.PatternChecks, c.DepChecks, c.MemChecks, c.ActionOps)
}

// Strategy selects how membership-qualified dependence clauses are
// evaluated — the two implementations compared in the paper's Section 4
// plus the heuristic choice GENesis was changed to make.
type Strategy int

const (
	// StrategyHeuristic estimates both enumeration orders and picks the
	// cheaper one per clause (the paper's final design).
	StrategyHeuristic Strategy = iota
	// StrategyMembers enumerates the members of the qualifying sets first,
	// then checks the dependence conditions (implementation 1).
	StrategyMembers
	// StrategyDeps enumerates dependences of the required kind first, then
	// checks set membership (implementation 2).
	StrategyDeps
)

func (s Strategy) String() string {
	switch s {
	case StrategyHeuristic:
		return "heuristic"
	case StrategyMembers:
		return "members-first"
	case StrategyDeps:
		return "deps-first"
	}
	return "?"
}
