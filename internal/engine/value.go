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
	"unsafe"

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

// Value is one GOSpeL runtime value, four words long so that it travels
// through eval's recursion in registers instead of by block copy. Kind
// says how the other three words read:
//
//	VStmt     Stmt
//	VLoop     Stmt = head, ptr = end
//	VSet      ptr = backing array, Num = length
//	VOperand  ptr = *ir.Operand
//	VNum      Num
//	VBool     Num = 0 or 1
//	VLit      ptr = the string's bytes, Num = its length
//	VSubst    ptr = *SubstVal
//
// Read ptr only through the accessors (Loop, Set, Op, Bool, Lit, Subst),
// which return the zero value for any other kind. Every ptr target is a
// Go-allocated or static object, so the collector sees it.
//
// An operand value points at the operand it denotes instead of copying
// it: at the operand's slot in its statement (opr_1..3, init, final,
// step), at a shared absent operand, or at the context's operand scratch
// for computed operands (eval(), L.lcv, float literals). So an operand
// value lives only until the statement it points into is next edited or
// the evaluation that computed it returns. No value is held that long:
// each action evaluates its own arguments, modify clones an operand before
// it writes one, subst linearizes into a fresh LinExpr, and search frames
// and every Env hold only statements, loops, numbers and sets.
type Value struct {
	Kind VKind
	Stmt *ir.Stmt
	Num  int64
	ptr  unsafe.Pointer
}

// SubstVal describes a variable substitution v ← Repl applied to a
// statement by modify(S, subst(v, expr)).
type SubstVal struct {
	Var  string
	Repl ir.LinExpr
}

// noneOp is the absent operand every absent operand value points at. It is
// never written: modify writes to statement slots only.
var noneOp = ir.None()

func stmtVal(s *ir.Stmt) Value { return Value{Kind: VStmt, Stmt: s} }
func loopVal(l ir.Loop) Value {
	return Value{Kind: VLoop, Stmt: l.Head, ptr: unsafe.Pointer(l.End)}
}
func setVal(s []*ir.Stmt) Value {
	return Value{Kind: VSet, Num: int64(len(s)), ptr: unsafe.Pointer(unsafe.SliceData(s))}
}
func opVal(o *ir.Operand) Value { return Value{Kind: VOperand, ptr: unsafe.Pointer(o)} }
func numVal(n int64) Value      { return Value{Kind: VNum, Num: n} }
func boolVal(b bool) Value {
	v := Value{Kind: VBool}
	if b {
		v.Num = 1
	}
	return v
}
func litVal(s string) Value {
	return Value{Kind: VLit, Num: int64(len(s)), ptr: unsafe.Pointer(unsafe.StringData(s))}
}
func substVal(s *SubstVal) Value { return Value{Kind: VSubst, ptr: unsafe.Pointer(s)} }

// Loop returns a loop value's loop.
func (v Value) Loop() ir.Loop {
	if v.Kind != VLoop {
		return ir.Loop{}
	}
	return ir.Loop{Head: v.Stmt, End: (*ir.Stmt)(v.ptr)}
}

// Set returns a set value's statements. The slice's capacity is its
// length, so appending to it copies.
func (v Value) Set() []*ir.Stmt {
	if v.Kind != VSet {
		return nil
	}
	return unsafe.Slice((**ir.Stmt)(v.ptr), v.Num)
}

// Op returns the operand an operand value points at, or the absent operand
// for any other kind. Callers must not write through it.
func (v Value) Op() *ir.Operand {
	if v.Kind != VOperand {
		return &noneOp
	}
	return (*ir.Operand)(v.ptr)
}

// Bool reports whether v is the boolean true.
func (v Value) Bool() bool { return v.Kind == VBool && v.Num != 0 }

// Lit returns a literal value's text.
func (v Value) Lit() string {
	if v.Kind != VLit {
		return ""
	}
	return unsafe.String((*byte)(v.ptr), v.Num)
}

// Subst returns a substitution value's descriptor.
func (v Value) Subst() *SubstVal {
	if v.Kind != VSubst {
		return nil
	}
	return (*SubstVal)(v.ptr)
}

func (v Value) String() string {
	switch v.Kind {
	case VStmt:
		if v.Stmt == nil {
			return "<nil stmt>"
		}
		return fmt.Sprintf("S%d", v.Stmt.ID)
	case VLoop:
		return fmt.Sprintf("loop(%s)", v.Loop().LCV())
	case VSet:
		return fmt.Sprintf("set[%d]", v.Num)
	case VOperand:
		return v.Op().String()
	case VNum:
		return fmt.Sprintf("%d", v.Num)
	case VBool:
		return fmt.Sprintf("%t", v.Bool())
	case VLit:
		return v.Lit()
	case VSubst:
		s := v.Subst()
		return fmt.Sprintf("subst(%s, %s)", s.Var, s.Repl)
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
