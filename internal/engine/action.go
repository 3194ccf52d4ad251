package engine

import (
	"repro/internal/gospel"
	"repro/ir"
)

// execActions runs an action list under the frame f. The five primitives mutate the
// program through the ir package's structural operations; each executed
// primitive counts one ActionOp (the paper's "operations to apply the code
// transformation").
func (o *Optimizer) execActions(ctx *context, f *frame, actions []gospel.Action) error {
	for _, a := range actions {
		if err := o.execAction(ctx, f, a); err != nil {
			return err
		}
	}
	return nil
}

func (o *Optimizer) execAction(ctx *context, f *frame, a gospel.Action) error {
	mark := len(ctx.ops)
	defer func() { ctx.ops = ctx.ops[:mark] }()
	switch a := a.(type) {
	case gospel.DeleteAction:
		sv, err := ctx.eval(f, a.Target)
		if err != nil {
			return err
		}
		if sv.Kind != VStmt || sv.Stmt == nil || ctx.prog.Index(sv.Stmt) < 0 {
			return errf("delete: target is not a live statement")
		}
		ctx.prog.Delete(sv.Stmt)
		ctx.cost.ActionOps++
		return nil

	case gospel.MoveAction:
		sv, err := ctx.eval(f, a.Src)
		if err != nil {
			return err
		}
		av, err := ctx.eval(f, a.After)
		if err != nil {
			// A nil anchor (e.g. L1.head.prev at the top of the program)
			// means "move to the front".
			av = stmtVal(nil)
		}
		if sv.Kind != VStmt || sv.Stmt == nil {
			return errf("move: source is not a statement")
		}
		if av.Kind != VStmt {
			return errf("move: anchor is not a statement")
		}
		ctx.prog.Move(sv.Stmt, av.Stmt)
		ctx.cost.ActionOps++
		return nil

	case gospel.CopyAction:
		sv, err := ctx.eval(f, a.Src)
		if err != nil {
			return err
		}
		av, err := ctx.eval(f, a.After)
		if err != nil {
			return err
		}
		if sv.Kind != VStmt || sv.Stmt == nil || av.Kind != VStmt || av.Stmt == nil {
			return errf("copy: needs statement source and anchor")
		}
		clone := ctx.prog.Copy(sv.Stmt, av.Stmt)
		f.set(a.Name, stmtVal(clone))
		ctx.cost.ActionOps++
		return nil

	case gospel.AddAction:
		av, err := ctx.eval(f, a.After)
		if err != nil {
			return err
		}
		dv, err := ctx.eval(f, a.Desc)
		if err != nil {
			return err
		}
		if av.Kind != VStmt || av.Stmt == nil {
			return errf("add: anchor is not a statement")
		}
		if dv.Kind != VStmt || dv.Stmt == nil {
			return errf("add: element description must evaluate to a statement template")
		}
		clone := ctx.prog.InsertAfter(av.Stmt, ir.CloneStmt(dv.Stmt))
		f.set(a.Name, stmtVal(clone))
		ctx.cost.ActionOps++
		return nil

	case gospel.ModifyAction:
		return o.execModify(ctx, f, a)

	case gospel.ForallAction:
		set, err := ctx.evalSet(f, a.Set)
		if err != nil {
			return err
		}
		// Snapshot: iterate the membership as of entry, skipping statements
		// removed by earlier iterations.
		snapshot := append([]*ir.Stmt{}, set...)
		for _, s := range snapshot {
			if ctx.prog.Index(s) < 0 {
				continue
			}
			f.set(a.Var, stmtVal(s))
			if err := o.execActions(ctx, f, a.Body); err != nil {
				f.set(a.Var, Value{})
				return err
			}
		}
		f.set(a.Var, Value{})
		return nil
	}
	return errf("unknown action")
}

// execModify implements the overloaded Modify primitive:
//
//   - operand slot ← operand value (the paper's Modify(Operand(S,i), new));
//   - opcode ← opcode literal (folding CFO sets opc to assign, PAR marks a
//     loop doall);
//   - whole statement ← subst(v, expr): rewrite occurrences of v.
func (o *Optimizer) execModify(ctx *context, f *frame, a gospel.ModifyAction) error {
	val, err := ctx.eval(f, a.Value)
	if err != nil {
		return err
	}

	// Whole-statement substitution.
	if val.Kind == VSubst {
		sv, err := ctx.eval(f, a.Target)
		if err != nil {
			return err
		}
		if sv.Kind != VStmt || sv.Stmt == nil {
			return errf("modify: subst target must be a statement")
		}
		ctx.cost.ActionOps++
		// Journal the pre-image first: substStmt can mutate partially before
		// discovering an unrepresentable occurrence and erroring out.
		ctx.prog.NoteModified(sv.Stmt)
		return substStmt(sv.Stmt, val.Subst())
	}

	stmt, slot, field, err := o.resolveLvalue(ctx, f, a.Target)
	if err != nil {
		return err
	}
	ctx.cost.ActionOps++
	switch field {
	case "operand":
		op := stmt.OperandSlot(slot)
		if op == nil {
			return errf("modify: statement S%d has no operand %d", stmt.ID, slot)
		}
		ctx.prog.NoteModified(stmt)
		switch val.Kind {
		case VOperand:
			*op = val.Op().Clone()
		case VNum:
			*op = ir.IntOp(val.Num)
		default:
			return errf("modify: %s is not an operand value", val)
		}
		return nil
	case "opc":
		if val.Kind != VLit {
			return errf("modify: opcode value must be a literal")
		}
		ctx.prog.NoteModified(stmt)
		return setOpc(stmt, val.Lit())
	}
	return errf("modify: unsupported target")
}

// resolveLvalue resolves a modify target to (statement, operand slot) or
// (statement, "opc").
func (o *Optimizer) resolveLvalue(ctx *context, f *frame, target gospel.Expr) (*ir.Stmt, int, string, error) {
	switch t := target.(type) {
	case gospel.Call:
		if t.Fn != "operand" || len(t.Args) != 2 {
			return nil, 0, "", errf("modify: target call must be operand(S, pos)")
		}
		sv, err := ctx.eval(f, t.Args[0])
		if err != nil {
			return nil, 0, "", err
		}
		pv, err := ctx.eval(f, t.Args[1])
		if err != nil {
			return nil, 0, "", err
		}
		if sv.Kind != VStmt || sv.Stmt == nil {
			return nil, 0, "", errf("modify: operand() needs a statement")
		}
		n, err := numeric(pv)
		if err != nil {
			return nil, 0, "", err
		}
		return sv.Stmt, int(n), "operand", nil
	case gospel.Attr:
		base, err := ctx.eval(f, t.Base)
		if err != nil {
			return nil, 0, "", err
		}
		var stmt *ir.Stmt
		switch base.Kind {
		case VStmt:
			stmt = base.Stmt
		case VLoop:
			if !base.Loop().Valid(ctx.prog) {
				return nil, 0, "", errf("modify: stale loop binding")
			}
			stmt = base.Stmt
		default:
			return nil, 0, "", errf("modify: target base must be a statement or loop")
		}
		if stmt == nil {
			return nil, 0, "", errf("modify: absent statement")
		}
		switch t.Name {
		case "opr_1":
			return stmt, 1, "operand", nil
		case "opr_2":
			return stmt, 2, "operand", nil
		case "opr_3":
			return stmt, 3, "operand", nil
		case "init":
			return stmt, 1, "operand", nil
		case "final":
			return stmt, 2, "operand", nil
		case "step":
			return stmt, 3, "operand", nil
		case "opc", "kind":
			return stmt, 0, "opc", nil
		}
		return nil, 0, "", errf("modify: cannot assign attribute %q", t.Name)
	}
	return nil, 0, "", errf("modify: unsupported target form")
}

// setOpc assigns a new opcode or statement kind.
func setOpc(s *ir.Stmt, lit string) error {
	switch lit {
	case "assign":
		if s.Kind != ir.SAssign {
			return errf("modify: %s is not an assignment", kindName(s))
		}
		s.Op = ir.OpCopy
		s.B = ir.None() // a copy has no third operand
		return nil
	case "add", "sub", "mul", "div", "mod":
		if s.Kind != ir.SAssign {
			return errf("modify: %s is not an assignment", kindName(s))
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
		return nil
	case "doall":
		if s.Kind != ir.SDoHead {
			return errf("modify: doall applies to loop headers")
		}
		s.Parallel = true
		return nil
	case "do":
		if s.Kind != ir.SDoHead {
			return errf("modify: do applies to loop headers")
		}
		s.Parallel = false
		return nil
	}
	return errf("modify: unknown opcode literal %q", lit)
}

// substStmt rewrites occurrences of sub.Var in every operand of s:
// subscript expressions substitute affinely; a direct scalar operand equal
// to the variable is replaced when the replacement is itself a variable or
// constant, or — for the sole right-hand operand of a copy — expanded into
// the equivalent add/sub. Anything else is unrepresentable in a quad and
// aborts the application.
func substStmt(s *ir.Stmt, sub *SubstVal) error {
	repl := sub.Repl.Normalize()

	// Replacement operand for direct occurrences, when expressible.
	var direct *ir.Operand
	switch {
	case repl.IsConst():
		op := ir.IntOp(repl.Const)
		direct = &op
	case len(repl.Terms) == 1 && repl.Terms[0].Coef == 1 && repl.Const == 0:
		op := ir.VarOp(repl.Terms[0].Var)
		direct = &op
	}

	substOperand := func(op *ir.Operand) error {
		switch op.Kind {
		case ir.ArrayRef:
			*op = op.SubstVar(sub.Var, repl)
			return nil
		case ir.Var:
			if op.Name != sub.Var {
				return nil
			}
			if direct != nil {
				*op = direct.Clone()
				return nil
			}
			return errf("subst: %s := %s not expressible in this operand", sub.Var, repl)
		}
		return nil
	}

	// Special case first: "x := i" (copy whose only source is the variable)
	// can absorb an affine replacement i+c as "x := i + c".
	if s.Kind == ir.SAssign && s.Op == ir.OpCopy && s.A.IsVar() && s.A.Name == sub.Var && direct == nil {
		if len(repl.Terms) == 1 && repl.Terms[0].Coef == 1 {
			s.Op = ir.OpAdd
			s.A = ir.VarOp(repl.Terms[0].Var)
			s.B = ir.IntOp(repl.Const)
			// Destination subscripts may still mention the variable.
			if s.Dst.IsArray() {
				s.Dst = s.Dst.SubstVar(sub.Var, repl)
			}
			return nil
		}
	}

	if s.Dst.Present() {
		if err := substOperand(&s.Dst); err != nil {
			return err
		}
	}
	if err := substOperand(&s.A); err != nil {
		return err
	}
	if err := substOperand(&s.B); err != nil {
		return err
	}
	if err := substOperand(&s.Init); err != nil {
		return err
	}
	if err := substOperand(&s.Final); err != nil {
		return err
	}
	if err := substOperand(&s.Step); err != nil {
		return err
	}
	for i := range s.Args {
		if err := substOperand(&s.Args[i]); err != nil {
			return err
		}
	}
	return nil
}
