package ir

import (
	"fmt"
	"strings"
)

// Decl records a variable declaration from the source program. Scalars have
// no dimensions; arrays carry their extent per dimension (used by the
// interpreter to allocate storage and by dependence tests as loop-independent
// bounds information).
type Decl struct {
	Name    string
	IsFloat bool
	Dims    []int64 // empty for scalars
}

// Program is an ordered list of IR statements plus declarations. All
// structural mutation goes through Program methods so that statement
// positions stay consistent; the methods are the transformation primitives
// the GENesis action section compiles to.
type Program struct {
	Name   string
	Decls  []Decl
	stmts  []*Stmt
	nextID int

	// journal, when attached via Log/EnsureLog, records every mutation for
	// undo and for incremental dependence maintenance.
	journal *ChangeLog
}

// NewProgram returns an empty program.
func NewProgram(name string) *Program {
	return &Program{Name: name, nextID: 1}
}

// Stmts returns the statement list. The returned slice must not be mutated
// directly; it is reallocated by mutation methods.
func (p *Program) Stmts() []*Stmt { return p.stmts }

// Len returns the number of statements.
func (p *Program) Len() int { return len(p.stmts) }

// Index returns the current position of s, or -1 if s is not in p.
func (p *Program) Index(s *Stmt) int {
	if s == nil || s.index < 0 || s.index >= len(p.stmts) || p.stmts[s.index] != s {
		return -1
	}
	return s.index
}

// At returns the statement at position i, or nil when out of range.
func (p *Program) At(i int) *Stmt {
	if i < 0 || i >= len(p.stmts) {
		return nil
	}
	return p.stmts[i]
}

// Next returns the statement after s (nil at the end).
func (p *Program) Next(s *Stmt) *Stmt { return p.At(p.Index(s) + 1) }

// Prev returns the statement before s (nil at the start). Note Prev of the
// first statement is nil, and Prev of a statement not in p is also nil.
func (p *Program) Prev(s *Stmt) *Stmt {
	i := p.Index(s)
	if i <= 0 {
		return nil
	}
	return p.At(i - 1)
}

// FindID returns the statement with the given ID, or nil.
func (p *Program) FindID(id int) *Stmt {
	for _, s := range p.stmts {
		if s.ID == id {
			return s
		}
	}
	return nil
}

func (p *Program) reindex(from int) {
	if from < 0 {
		from = 0
	}
	for i := from; i < len(p.stmts); i++ {
		p.stmts[i].index = i
	}
}

func (p *Program) assignID(s *Stmt) {
	if s.ID == 0 {
		s.ID = p.nextID
	}
	if s.ID >= p.nextID {
		p.nextID = s.ID + 1
	}
}

// Append adds s at the end of the program and returns it.
func (p *Program) Append(s *Stmt) *Stmt {
	p.assignID(s)
	s.index = len(p.stmts)
	s.prog = p
	p.stmts = append(p.stmts, s)
	p.record(Change{Kind: ChangeInsert, Stmt: s, Index: s.index})
	return s
}

// InsertAt inserts s so that it occupies position i (0 ≤ i ≤ Len).
func (p *Program) InsertAt(i int, s *Stmt) *Stmt {
	if i < 0 {
		i = 0
	}
	if i > len(p.stmts) {
		i = len(p.stmts)
	}
	p.assignID(s)
	p.stmts = append(p.stmts, nil)
	copy(p.stmts[i+1:], p.stmts[i:])
	p.stmts[i] = s
	s.prog = p
	p.reindex(i)
	p.record(Change{Kind: ChangeInsert, Stmt: s, Index: i})
	return s
}

// InsertAfter inserts s immediately after the statement "after". A nil
// "after" inserts at the beginning of the program (the paper's Add primitive
// with a null anchor).
func (p *Program) InsertAfter(after, s *Stmt) *Stmt {
	if after == nil {
		return p.InsertAt(0, s)
	}
	i := p.Index(after)
	if i < 0 {
		panic("ir: InsertAfter anchor not in program")
	}
	return p.InsertAt(i+1, s)
}

// InsertBefore inserts s immediately before the statement "before".
func (p *Program) InsertBefore(before, s *Stmt) *Stmt {
	i := p.Index(before)
	if i < 0 {
		panic("ir: InsertBefore anchor not in program")
	}
	return p.InsertAt(i, s)
}

// Delete removes s from the program. It is the Delete(a) primitive.
func (p *Program) Delete(s *Stmt) {
	i := p.Index(s)
	if i < 0 {
		panic("ir: Delete target not in program")
	}
	copy(p.stmts[i:], p.stmts[i+1:])
	p.stmts = p.stmts[:len(p.stmts)-1]
	s.index = -1
	s.prog = nil
	p.reindex(i)
	p.record(Change{Kind: ChangeDelete, Stmt: s, Index: i})
}

// Move removes s from its position and re-inserts it immediately after
// "after" (nil moves it to the front). It is the Move(a, b) primitive.
func (p *Program) Move(s, after *Stmt) {
	if s == after {
		return
	}
	i := p.Index(s)
	if i < 0 {
		panic("ir: Move target not in program")
	}
	copy(p.stmts[i:], p.stmts[i+1:])
	p.stmts = p.stmts[:len(p.stmts)-1]
	j := 0
	if after != nil {
		// after's index may have shifted by the removal; look it up fresh.
		k := -1
		for idx, t := range p.stmts {
			if t == after {
				k = idx
				break
			}
		}
		if k < 0 {
			panic("ir: Move anchor not in program")
		}
		j = k + 1
	}
	p.stmts = append(p.stmts, nil)
	copy(p.stmts[j+1:], p.stmts[j:])
	p.stmts[j] = s
	p.reindex(0)
	p.record(Change{Kind: ChangeMove, Stmt: s, Index: i})
}

// Copy clones src, inserts the clone immediately after "after", and returns
// the clone. It is the Copy(a, b, c) primitive; the caller binds the result
// to the name c.
func (p *Program) Copy(src, after *Stmt) *Stmt {
	c := CloneStmt(src)
	return p.InsertAfter(after, c)
}

// Clone returns a deep copy of the whole program with the same statement
// IDs, so that analyses keyed by ID can be compared across a snapshot.
func (p *Program) Clone() *Program {
	q := &Program{Name: p.Name, nextID: p.nextID}
	q.Decls = append([]Decl{}, p.Decls...)
	q.stmts = make([]*Stmt, len(p.stmts))
	for i, s := range p.stmts {
		c := CloneStmt(s)
		c.ID = s.ID
		c.index = i
		c.prog = q
		q.stmts[i] = c
	}
	return q
}

// CopyFrom replaces p's contents with q's (declarations, statements, ID
// counter). Transformation engines use it to roll back a partially applied
// action sequence: clone first, CopyFrom the clone on failure.
func (p *Program) CopyFrom(q *Program) {
	c := q.Clone()
	for _, s := range p.stmts {
		s.prog = nil
	}
	p.Name = c.Name
	p.Decls = c.Decls
	p.stmts = c.stmts
	for _, s := range p.stmts {
		s.prog = p
	}
	p.nextID = c.nextID
	p.record(Change{Kind: ChangeReset})
}

// Equal reports whether two programs are structurally identical statement by
// statement (IDs ignored).
func (p *Program) Equal(q *Program) bool {
	if len(p.stmts) != len(q.stmts) {
		return false
	}
	for i := range p.stmts {
		if !EqualStmt(p.stmts[i], q.stmts[i]) {
			return false
		}
	}
	return true
}

// DeclOf returns the declaration of name, if any.
func (p *Program) DeclOf(name string) (Decl, bool) {
	for _, d := range p.Decls {
		if d.Name == name {
			return d, true
		}
	}
	return Decl{}, false
}

// Validate checks structural well-formedness: DO/ENDDO and IF/ELSE/ENDIF
// properly nested and matched. Transformation actions can break structure
// mid-flight; Validate is the post-action invariant check.
func (p *Program) Validate() error {
	type frame struct {
		kind StmtKind
		pos  int
	}
	var stack []frame
	for i, s := range p.stmts {
		switch s.Kind {
		case SDoHead:
			stack = append(stack, frame{SDoHead, i})
		case SIf:
			stack = append(stack, frame{SIf, i})
		case SElse:
			if len(stack) == 0 || stack[len(stack)-1].kind != SIf {
				return fmt.Errorf("ir: ELSE at %d without open IF", i)
			}
		case SEndIf:
			if len(stack) == 0 || stack[len(stack)-1].kind != SIf {
				return fmt.Errorf("ir: ENDIF at %d without open IF", i)
			}
			stack = stack[:len(stack)-1]
		case SDoEnd:
			if len(stack) == 0 || stack[len(stack)-1].kind != SDoHead {
				return fmt.Errorf("ir: ENDDO at %d without open DO", i)
			}
			stack = stack[:len(stack)-1]
		}
	}
	if len(stack) != 0 {
		return fmt.Errorf("ir: %d unclosed structure(s), first at %d", len(stack), stack[0].pos)
	}
	return nil
}

// String renders the program in the canonical text form used in tests and
// by the CLI tools.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", p.Name)
	indent := 1
	for _, s := range p.stmts {
		switch s.Kind {
		case SDoEnd, SEndIf:
			indent--
		case SElse:
			indent--
		}
		if indent < 0 {
			indent = 0
		}
		b.WriteString(strings.Repeat("  ", indent))
		b.WriteString(FormatStmt(s))
		b.WriteByte('\n')
		switch s.Kind {
		case SDoHead, SIf, SElse:
			indent++
		}
	}
	b.WriteString("end\n")
	return b.String()
}

// FormatStmt renders a single statement.
func FormatStmt(s *Stmt) string {
	switch s.Kind {
	case SAssign:
		if s.Op == OpCopy {
			return fmt.Sprintf("%s := %s", s.Dst, s.A)
		}
		return fmt.Sprintf("%s := %s %s %s", s.Dst, s.A, s.Op, s.B)
	case SDoHead:
		kw := "do"
		if s.Parallel {
			kw = "doall"
		}
		if s.Step.IsConst() && s.Step.Val.Equal(IntVal(1)) {
			return fmt.Sprintf("%s %s = %s, %s", kw, s.LCV, s.Init, s.Final)
		}
		return fmt.Sprintf("%s %s = %s, %s, %s", kw, s.LCV, s.Init, s.Final, s.Step)
	case SDoEnd:
		return "enddo"
	case SIf:
		return fmt.Sprintf("if %s %s %s then", s.A, s.Rel, s.B)
	case SElse:
		return "else"
	case SEndIf:
		return "endif"
	case SPrint:
		parts := make([]string, len(s.Args))
		for i, a := range s.Args {
			parts[i] = a.String()
		}
		return "print " + strings.Join(parts, ", ")
	case SRead:
		return fmt.Sprintf("read %s", s.Dst)
	}
	return fmt.Sprintf("<%v>", s.Kind)
}
