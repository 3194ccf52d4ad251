// Package codegen emits Go source code for an optimizer from a GOSpeL
// specification — the reproduction of GENesis's generator proper, which in
// the paper produced C (Figure 6 shows the generated code for CTP). The
// emitted file contains the four procedures of the paper (set_up_XXX as an
// element-table function, match_XXX inlined as the pattern search loops,
// pre_XXX as the dependence-verification blocks and act_XXX as a separate
// function), a Fig. 5 driver hook, and calls only into the
// optimization-independent library (package repro/optlib) plus the ir and
// dep packages.
//
// Candidate enumeration in generated code follows the paper's sequential
// style: a dependence-anchored search when the clause binds a position
// variable, the membership set when the clause qualifies its element with
// mem(...), and a whole-program scan otherwise.
package codegen

import (
	"fmt"
	"go/format"
	"strings"

	"repro/internal/gospel"
)

// Version identifies the code generator's output format; optd reports it in
// /v1/version and its build-info gauge. Bump it whenever a change to this
// package can alter the emitted source for an unchanged spec.
const Version = "1"

// Options configures generation.
type Options struct {
	// Package is the emitted package name (default "main").
	Package string
	// EmitMain adds a func main() that runs the optimizer as a CLI tool
	// over a MiniF file (only sensible with Package == "main").
	EmitMain bool
}

// Generate emits the optimizer source for a checked specification.
func Generate(spec *gospel.Spec, opt Options) (string, error) {
	if opt.Package == "" {
		opt.Package = "main"
	}
	g := &gen{spec: spec, opt: opt, syms: map[string]sym{}}
	src, err := g.run()
	if err != nil {
		return "", err
	}
	pretty, ferr := format.Source([]byte(src))
	if ferr != nil {
		// A formatting failure means the generator produced invalid Go;
		// return the raw text in the error for diagnosis.
		return "", fmt.Errorf("codegen(%s): emitted invalid Go: %v\n%s", spec.Name, ferr, src)
	}
	return string(pretty), nil
}

type symKind int

const (
	symStmt symKind = iota
	symLoop
	symPos
	symSet
)

type sym struct {
	kind symKind
	expr string // Go expression for the bound value
}

type gen struct {
	spec   *gospel.Spec
	opt    Options
	buf    *strings.Builder
	indent int
	syms   map[string]sym
	unique int
	// guards accumulates "ok" flags hoisted by expression translation
	// (trip(), ConstInt comparisons); the clause emitter folds them into
	// the condition.
	guards []string
	// apply-time binding snapshot, recorded when the application site is
	// reached; drives the act function's parameter list.
	bound []boundElem
}

type boundElem struct {
	name string
	kind symKind
}

func (g *gen) fresh(prefix string) string {
	g.unique++
	return fmt.Sprintf("%s%d", prefix, g.unique)
}

func (g *gen) line(format string, args ...interface{}) {
	g.buf.WriteString(strings.Repeat("\t", g.indent))
	fmt.Fprintf(g.buf, format, args...)
	g.buf.WriteByte('\n')
}

func (g *gen) takeGuards() []string {
	out := g.guards
	g.guards = nil
	return out
}

func (g *gen) guardedCond(cond string) string {
	guards := g.takeGuards()
	if len(guards) == 0 {
		return cond
	}
	return strings.Join(append(guards, cond), " && ")
}

func (g *gen) errf(format string, args ...interface{}) error {
	return fmt.Errorf("codegen(%s): %s", g.spec.Name, fmt.Sprintf(format, args...))
}

func ident(name string) string { return "v_" + name }

func (g *gen) run() (string, error) {
	name := g.spec.Name

	// Phase 1: the apply function, which records the apply-time bindings.
	var applyBuf strings.Builder
	g.buf = &applyBuf
	g.indent = 0
	g.line("// apply%s searches for the first unseen application point and applies", name)
	g.line("// the transformation there (one driver iteration).")
	g.line("func apply%s(p *ir.Program, g *dep.Graph, seen map[string]bool) bool {", name)
	g.indent++
	g.line("_ = setUp%s()", name)
	if err := g.emitPatterns(0); err != nil {
		return "", err
	}
	g.line("return false")
	g.indent--
	g.line("}")

	// Phase 2: the act function for the recorded bindings.
	var actBuf strings.Builder
	g.buf = &actBuf
	g.indent = 0
	if err := g.emitAct(); err != nil {
		return "", err
	}

	// Phase 3: assemble the file.
	var out strings.Builder
	g.buf = &out
	g.indent = 0
	g.line("// Code generated by GENesis from the GOSpeL specification %q; DO NOT EDIT.", name)
	g.line("//")
	g.line("// The structure mirrors the paper's generated C (Fig. 6): setUp%s is the", name)
	g.line("// element table, the pattern loops are match_%s, the dependence blocks", name)
	g.line("// are pre_%s, and act%s applies the transformation primitives.", name, name)
	g.line("package %s", g.opt.Package)
	g.line("")
	g.line("import (")
	g.indent++
	g.line(`"repro/dep"`)
	g.line(`"repro/ir"`)
	g.line(`"repro/optlib"`)
	g.indent--
	g.line(")")
	g.line("")
	g.line("// setUp%s returns the element table built from the TYPE section (the", name)
	g.line("// paper's stlp structure).")
	g.line("func setUp%s() []string {", name)
	g.indent++
	g.line("return []string{")
	g.indent++
	for _, td := range g.spec.Types {
		for _, it := range td.Items {
			g.line("%q,", strings.Join(it.Names, ", ")+": "+td.Kind.String())
		}
	}
	g.indent--
	g.line("}")
	g.indent--
	g.line("}")
	g.line("")
	out.WriteString(actBuf.String())
	g.line("")
	out.WriteString(applyBuf.String())
	if g.opt.EmitMain {
		g.line("")
		g.line("func main() { optlib.Main(%q, apply%s) }", name, name)
	}
	return out.String(), nil
}

// emitPatterns emits the nested candidate loops for pattern clause idx and
// recurses; after the last pattern clause it emits the depend clauses and
// the application site.
func (g *gen) emitPatterns(idx int) error {
	if idx >= len(g.spec.Patterns) {
		return g.emitDepends(0)
	}
	pc := g.spec.Patterns[idx]

	// Already-bound clause (chained pairs): just check the format.
	allBound := true
	for _, n := range pc.Elems {
		if _, ok := g.syms[n]; !ok {
			allBound = false
		}
	}
	if allBound {
		if pc.Format != nil {
			cond, err := g.boolExpr(pc.Format)
			if err != nil {
				return err
			}
			g.line("if !(%s) {", g.guardedCond(cond))
			g.line("\tcontinue")
			g.line("}")
		}
		return g.emitPatterns(idx + 1)
	}

	if pc.Quant == gospel.QAll {
		return g.emitPatternAll(pc, idx)
	}

	opened := 0
	switch len(pc.Elems) {
	case 1:
		n := pc.Elems[0]
		kind, _ := g.spec.DeclKind(n)
		if kind == gospel.KStmt {
			g.line("for _, %s := range p.Stmts() {", ident(n))
			g.syms[n] = sym{symStmt, ident(n)}
		} else {
			g.line("for _, %s := range ir.Loops(p) {", ident(n))
			g.syms[n] = sym{symLoop, ident(n)}
		}
		g.indent++
		opened = 1
	case 2:
		a, b := pc.Elems[0], pc.Elems[1]
		kind, _ := g.spec.DeclKind(a)
		var finder string
		switch kind {
		case gospel.KNestedLoops:
			finder = "ir.NestedPairs"
		case gospel.KTightLoops:
			finder = "ir.TightPairs"
		case gospel.KAdjacentLoops:
			finder = "ir.AdjacentPairs"
		default:
			return g.errf("pair element %s has non-pair type", a)
		}
		pr := g.fresh("pr")
		g.line("for _, %s := range %s(p) {", pr, finder)
		g.indent++
		opened = 1
		// Unify with any already-bound half (chained nests).
		if s, ok := g.syms[a]; ok {
			g.line("if %s[0].Head != %s.Head {", pr, s.expr)
			g.line("\tcontinue")
			g.line("}")
		} else {
			g.line("%s := %s[0]", ident(a), pr)
			g.syms[a] = sym{symLoop, ident(a)}
		}
		if s, ok := g.syms[b]; ok {
			g.line("if %s[1].Head != %s.Head {", pr, s.expr)
			g.line("\tcontinue")
			g.line("}")
		} else {
			g.line("%s := %s[1]", ident(b), pr)
			g.syms[b] = sym{symLoop, ident(b)}
		}
	default:
		return g.errf("pattern clause binds %d elements", len(pc.Elems))
	}

	if pc.Format != nil {
		cond, err := g.boolExpr(pc.Format)
		if err != nil {
			return err
		}
		g.line("if !(%s) {", g.guardedCond(cond))
		g.line("\tcontinue")
		g.line("}")
	}
	if err := g.emitPatterns(idx + 1); err != nil {
		return err
	}
	for i := 0; i < opened; i++ {
		g.indent--
		g.line("}")
	}
	return nil
}

func (g *gen) emitPatternAll(pc gospel.PatternClause, idx int) error {
	n := pc.Elems[0]
	kind, _ := g.spec.DeclKind(n)
	if kind != gospel.KStmt {
		return g.errf("'all' pattern supports statement elements only")
	}
	setName := ident(n)
	g.line("var %s []*ir.Stmt", setName)
	iter := g.fresh("s")
	g.line("for _, %s := range p.Stmts() {", iter)
	g.indent++
	if pc.Format != nil {
		g.syms[n] = sym{symStmt, iter}
		cond, err := g.boolExpr(pc.Format)
		if err != nil {
			return err
		}
		g.line("if !(%s) {", g.guardedCond(cond))
		g.line("\tcontinue")
		g.line("}")
	}
	g.line("%s = append(%s, %s)", setName, setName, iter)
	g.indent--
	g.line("}")
	g.syms[n] = sym{symSet, setName}
	return g.emitPatterns(idx + 1)
}

// emitDepends emits dependence clause idx and recurses; after the last it
// emits the application (signature check + act call).
func (g *gen) emitDepends(idx int) error {
	if idx >= len(g.spec.Depends) {
		return g.emitApply()
	}
	dc := g.spec.Depends[idx]

	var newElems []string
	for _, n := range dc.Elems {
		if _, ok := g.syms[n]; !ok {
			newElems = append(newElems, n)
		}
	}

	// Pure condition on bound elements.
	if len(newElems) == 0 {
		cond, err := g.clauseCond(dc)
		if err != nil {
			return err
		}
		if dc.Quant == gospel.QNo {
			g.line("if %s {", cond)
		} else {
			g.line("if !(%s) {", cond)
		}
		g.line("\tcontinue")
		g.line("}")
		return g.emitDepends(idx + 1)
	}

	switch dc.Quant {
	case gospel.QAny:
		return g.emitAnyClause(dc, newElems, idx)
	case gospel.QNo:
		return g.emitNoClause(dc, newElems, idx)
	case gospel.QAll:
		return g.emitAllClause(dc, newElems, idx)
	}
	return g.errf("unsupported quantifier")
}

// enumeration splits a clause's new elements into their generators.
type enumeration struct {
	stmtVars []string
	posVars  []string
	anchored *anchorInfo
}

type anchorInfo struct {
	call    gospel.Call
	newName string
	newIsrc bool
}

func (g *gen) analyzeClause(dc gospel.DependClause, newElems []string) enumeration {
	var e enumeration
	for _, n := range newElems {
		if _, declared := g.spec.DeclKind(n); declared {
			e.stmtVars = append(e.stmtVars, n)
		} else {
			e.posVars = append(e.posVars, n)
		}
	}
	// Find an anchored dependence predicate for a single new element. The
	// edge-enumeration binder is only complete when the clause's condition
	// cannot be satisfied without that predicate, so generated code uses it
	// solely to bind position variables (which only dependence edges carry);
	// all other clauses scan their membership sets or the whole program.
	if len(e.posVars) > 0 && len(e.stmtVars) == 1 && dc.Conds != nil {
		n := e.stmtVars[0]
		var walk func(x gospel.Expr)
		walk = func(x gospel.Expr) {
			if e.anchored != nil {
				return
			}
			switch x := x.(type) {
			case gospel.Binary:
				walk(x.L)
				walk(x.R)
			case gospel.Not:
				walk(x.E)
			case gospel.Call:
				if _, ok := depPredKind(x.Fn); !ok || len(x.Args) != 2 ||
					x.CarriedBy != "" || x.Independent {
					return
				}
				src, sOK := x.Args[0].(gospel.Ident)
				dst, dOK := x.Args[1].(gospel.Ident)
				if sOK && src.Name == n && dOK {
					if _, bound := g.syms[dst.Name]; bound {
						e.anchored = &anchorInfo{call: x, newName: n, newIsrc: true}
					}
				}
				if e.anchored == nil && dOK && dst.Name == n && sOK {
					if _, bound := g.syms[src.Name]; bound {
						e.anchored = &anchorInfo{call: x, newName: n, newIsrc: false}
					}
				}
			}
		}
		walk(dc.Conds)
	}
	return e
}

func depPredKind(fn string) (string, bool) {
	switch fn {
	case "flow_dep":
		return "dep.Flow", true
	case "anti_dep":
		return "dep.Anti", true
	case "out_dep":
		return "dep.Output", true
	case "ctrl_dep":
		return "dep.Control", true
	}
	return "", false
}

// memSetExpr returns the Go expression for a positive mem() set qualifying
// element n, if the Sets part has one.
func (g *gen) memSetExpr(dc gospel.DependClause, n string) (string, bool, error) {
	if dc.Sets == nil {
		return "", false, nil
	}
	var found gospel.Expr
	var walk func(x gospel.Expr)
	walk = func(x gospel.Expr) {
		if found != nil {
			return
		}
		switch x := x.(type) {
		case gospel.Binary:
			walk(x.L)
			walk(x.R)
		case gospel.Call:
			if x.Fn != "mem" || len(x.Args) != 2 {
				return
			}
			if id, ok := x.Args[0].(gospel.Ident); ok && id.Name == n {
				found = x.Args[1]
			}
		}
	}
	walk(dc.Sets)
	if found == nil {
		return "", false, nil
	}
	expr, err := g.setExpr(found)
	if err != nil {
		return "", false, err
	}
	return expr, true, nil
}

// emitBinder opens the candidate loop(s) for a clause's new elements and
// returns the number of opened loops. Bindings are added to the symbol
// table; the caller emits the clause condition inside and closes the loops.
func (g *gen) emitBinder(dc gospel.DependClause, e enumeration) (int, error) {
	opened := 0
	if e.anchored != nil && len(e.stmtVars) == 1 {
		ap := e.anchored
		kind, _ := depPredKind(ap.call.Fn)
		vec := vecLiteral(ap.call.Dir)
		d := g.fresh("d")
		if ap.newIsrc {
			dst := g.syms[ap.call.Args[1].(gospel.Ident).Name].expr
			g.line("for _, %s := range g.Query(%s, nil, %s, %s) {", d, kind, dst, vec)
		} else {
			src := g.syms[ap.call.Args[0].(gospel.Ident).Name].expr
			g.line("for _, %s := range g.Query(%s, %s, nil, %s) {", d, kind, src, vec)
		}
		g.indent++
		opened++
		n := e.stmtVars[0]
		if ap.newIsrc {
			g.line("%s := %s.Src", ident(n), d)
		} else {
			g.line("%s := %s.Dst", ident(n), d)
		}
		g.syms[n] = sym{symStmt, ident(n)}
		for _, pv := range e.posVars {
			g.line("%s := optlib.UsePos(%s)", ident(pv), d)
			g.syms[pv] = sym{symPos, ident(pv)}
		}
		return opened, nil
	}
	if len(e.posVars) > 0 {
		return 0, g.errf("position variables need a dependence-anchored clause")
	}
	for _, n := range e.stmtVars {
		set, ok, err := g.memSetExpr(dc, n)
		if err != nil {
			return opened, err
		}
		if !ok {
			set = "p.Stmts()"
		}
		g.line("for _, %s := range %s {", ident(n), set)
		g.indent++
		opened++
		g.syms[n] = sym{symStmt, ident(n)}
	}
	return opened, nil
}

func (g *gen) clauseCond(dc gospel.DependClause) (string, error) {
	parts := []string{}
	if dc.Sets != nil {
		c, err := g.boolExpr(dc.Sets)
		if err != nil {
			return "", err
		}
		parts = append(parts, c)
	}
	if dc.Conds != nil {
		c, err := g.boolExpr(dc.Conds)
		if err != nil {
			return "", err
		}
		parts = append(parts, c)
	}
	if len(parts) == 0 {
		return "true", nil
	}
	return g.guardedCond(strings.Join(parts, " && ")), nil
}

func (g *gen) emitAnyClause(dc gospel.DependClause, newElems []string, idx int) error {
	e := g.analyzeClause(dc, newElems)
	opened, err := g.emitBinder(dc, e)
	if err != nil {
		return err
	}
	cond, err := g.clauseCond(dc)
	if err != nil {
		return err
	}
	g.line("if !(%s) {", cond)
	g.line("\tcontinue")
	g.line("}")
	if err := g.emitDepends(idx + 1); err != nil {
		return err
	}
	for i := 0; i < opened; i++ {
		g.indent--
		g.line("}")
	}
	for _, n := range newElems {
		delete(g.syms, n)
	}
	return nil
}

func (g *gen) emitNoClause(dc gospel.DependClause, newElems []string, idx int) error {
	e := g.analyzeClause(dc, newElems)
	witness := g.fresh("witness")
	g.line("%s := false", witness)
	opened, err := g.emitBinder(dc, e)
	if err != nil {
		return err
	}
	cond, err := g.clauseCond(dc)
	if err != nil {
		return err
	}
	g.line("if %s {", cond)
	g.line("\t%s = true", witness)
	g.line("\tbreak")
	g.line("}")
	for i := 0; i < opened; i++ {
		g.indent--
		g.line("}")
		if i < opened-1 {
			g.line("if %s {", witness)
			g.line("\tbreak")
			g.line("}")
		}
	}
	g.line("if %s {", witness)
	g.line("\tcontinue")
	g.line("}")
	for _, n := range newElems {
		delete(g.syms, n)
	}
	return g.emitDepends(idx + 1)
}

func (g *gen) emitAllClause(dc gospel.DependClause, newElems []string, idx int) error {
	e := g.analyzeClause(dc, newElems)
	if len(e.stmtVars) != 1 {
		return g.errf("'all' clauses collect a single element")
	}
	n := e.stmtVars[0]
	setName := ident(n) + "_set"
	g.line("var %s []*ir.Stmt", setName)
	opened, err := g.emitBinder(dc, e)
	if err != nil {
		return err
	}
	cond, err := g.clauseCond(dc)
	if err != nil {
		return err
	}
	g.line("if %s {", cond)
	g.line("\t%s = append(%s, %s)", setName, setName, g.syms[n].expr)
	g.line("}")
	for i := 0; i < opened; i++ {
		g.indent--
		g.line("}")
	}
	g.syms[n] = sym{symSet, setName}
	for _, pv := range e.posVars {
		delete(g.syms, pv)
	}
	return g.emitDepends(idx + 1)
}

// emitApply emits the signature check and the act call at the innermost
// binding level, and records the binding snapshot for emitAct.
func (g *gen) emitApply() error {
	var parts, actArgs []string
	g.bound = nil
	for _, n := range g.bindingOrder() {
		s := g.syms[n]
		g.bound = append(g.bound, boundElem{n, s.kind})
		actArgs = append(actArgs, s.expr)
		switch s.kind {
		case symStmt:
			parts = append(parts, "optlib.SigStmt("+s.expr+")")
		case symLoop:
			parts = append(parts, "optlib.SigLoop("+s.expr+")")
		case symPos:
			parts = append(parts, "optlib.SigNum("+s.expr+")")
		case symSet:
			parts = append(parts, "optlib.SigSet("+s.expr+")")
		}
	}
	g.line("sig := optlib.SigN(%s)", strings.Join(parts, ", "))
	g.line("if seen[sig] {")
	g.line("\tcontinue")
	g.line("}")
	g.line("seen[sig] = true")
	g.line("log, owned := p.EnsureLog()")
	g.line("mark := log.Mark()")
	g.line("if act%s(p, %s) != nil || p.Validate() != nil {", g.spec.Name, strings.Join(actArgs, ", "))
	g.line("\t// Undo in place: every untouched statement keeps its identity,")
	g.line("\t// so the bindings and graph stay valid — keep searching.")
	g.line("\tlog.UndoTo(mark)")
	g.line("\tif owned {")
	g.line("\t\tlog.Detach()")
	g.line("\t}")
	g.line("\tcontinue")
	g.line("}")
	g.line("if owned {")
	g.line("\tlog.Detach()")
	g.line("}")
	g.line("return true")
	return nil
}

// bindingOrder returns bound element names in declaration order (TYPE
// section order, then position variables in clause order) for stable
// signatures and act parameter lists.
func (g *gen) bindingOrder() []string {
	var order []string
	seen := map[string]bool{}
	add := func(n string) {
		if _, ok := g.syms[n]; ok && !seen[n] {
			seen[n] = true
			order = append(order, n)
		}
	}
	for _, td := range g.spec.Types {
		for _, it := range td.Items {
			for _, n := range it.Names {
				add(n)
			}
		}
	}
	for _, dc := range g.spec.Depends {
		for _, n := range dc.Elems {
			add(n)
		}
	}
	return order
}
