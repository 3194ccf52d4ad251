// Package cfg builds a control-flow graph over the structured IR. Nodes are
// individual statements (programs in this system are small source routines,
// so statement-granularity keeps the dataflow clients simple); a basic-block
// view is derived on top for clients that want one.
//
// Edge model for the structured statements:
//
//   - DO head → first body statement (loop entered) and → statement after
//     the matching ENDDO (zero-trip exit).
//   - ENDDO → its DO head (back edge).
//   - IF → first THEN statement and → first ELSE statement (or the ENDIF
//     when there is no ELSE).
//   - A statement whose successor would be an ELSE falls through to the
//     matching ENDIF instead (end of the THEN branch).
package cfg

import (
	"fmt"
	"slices"
	"strings"

	"repro/ir"
)

// Graph is a statement-level control-flow graph. Indices are positions in
// the program's statement list at build time; the graph is a snapshot and
// must be rebuilt after the program is transformed.
type Graph struct {
	Prog *ir.Program
	Succ [][]int
	Pred [][]int

	// The flat arrays the successor and predecessor lists share.
	succBuf, predBuf []int
}

// Build constructs the CFG for p.
func Build(p *ir.Program) *Graph { return build(p, matchBrackets(p), true, nil) }

// BuildBoth returns Build(p) and the forward-only CFG of p, sharing one
// bracket match. The forward-only graph has no loop back edges (ENDDO →
// DO): it is acyclic, and dataflow facts computed on it describe a single
// iteration, which the dependence analyzer uses to separate
// loop-independent from loop-carried dependences.
func BuildBoth(p *ir.Program) (full, fwd *Graph) { return BuildBothInto(p, nil, nil) }

// BuildBothInto is BuildBoth rebuilding into the storage of full and fwd,
// graphs an earlier build returned; either may be nil. The graphs' previous
// contents are overwritten.
func BuildBothInto(p *ir.Program, full, fwd *Graph) (*Graph, *Graph) {
	br := matchBrackets(p)
	return build(p, br, true, full), build(p, br, false, fwd)
}

// build constructs one CFG of p in a single pass over the statements, into
// g's storage when g is not nil; the successor lists share one flat
// backing array.
func build(p *ir.Program, br brackets, withBackEdges bool, g *Graph) *Graph {
	n := p.Len()
	if g == nil {
		g = &Graph{}
	}
	g.Prog = p
	g.Succ = slices.Grow(g.Succ[:0], n)[:n]
	buf := slices.Grow(g.succBuf[:0], 2*n) // no statement has more than two successors
	for i := 0; i < n; i++ {
		start := len(buf)
		add := func(to int) { buf = appendEdge(buf, start, to, n) }
		switch p.At(i).Kind {
		case ir.SDoHead:
			add(i + 1) // into the body (or directly to the ENDDO if empty)
			if end := br.partner[i]; end >= 0 {
				add(int(end) + 1) // zero-trip exit
			}
		case ir.SDoEnd:
			if !withBackEdges {
				// Forward-only view: the ENDDO falls through to the loop
				// exit so one-iteration facts still flow past the loop.
				add(i + 1)
			} else if head := br.partner[i]; head >= 0 {
				add(int(head)) // back edge
			}
		case ir.SIf:
			add(i + 1) // THEN branch (or ELSE/ENDIF when empty)
			switch els, endif := br.els[i], br.partner[i]; {
			case els >= 0:
				add(int(els) + 1)
			case endif >= 0:
				add(int(endif))
			}
		case ir.SElse:
			// Reaching the ELSE marker means the THEN branch finished;
			// control jumps over the ELSE branch to the matching ENDIF.
			if endif := br.partner[i]; endif >= 0 {
				add(int(endif))
			}
		default:
			add(i + 1)
		}
		g.Succ[i] = buf[start:len(buf):len(buf)]
	}
	// The predecessor lists share one flat array too. Each list's length
	// first counts its node's in-degree (no in-degree exceeds the edge
	// count, so the counting slices stay inside pbuf); the lists are then
	// laid out back to back and filled in ascending source order.
	pbuf := slices.Grow(g.predBuf[:0], len(buf))[:len(buf)]
	g.Pred = slices.Grow(g.Pred[:0], n)[:n]
	clear(g.Pred)
	for _, t := range buf {
		g.Pred[t] = pbuf[:len(g.Pred[t])+1]
	}
	off := 0
	for t, pred := range g.Pred {
		d := len(pred)
		g.Pred[t] = nil
		if d > 0 {
			g.Pred[t] = pbuf[off : off : off+d]
		}
		off += d
	}
	for i, succ := range g.Succ {
		for _, t := range succ {
			g.Pred[t] = append(g.Pred[t], i)
		}
	}
	g.succBuf, g.predBuf = buf, pbuf
	return g
}

// appendEdge appends edge target to to the successor run starting at
// buf[start], unless it is out of range or already in the run (an
// empty-body loop reaches its ENDDO and its exit through one edge).
func appendEdge(buf []int, start, to, n int) []int {
	if to < 0 || to >= n {
		return buf
	}
	for _, t := range buf[start:] {
		if t == to {
			return buf
		}
	}
	return append(buf, to)
}

// brackets records, per statement index, the bracket each DO/ENDDO/IF/ELSE
// statement pairs with (-1 when unmatched): a DO head's ENDDO, an ENDDO's
// DO head, an IF's ENDIF and an ELSE's ENDIF. els holds each IF's ELSE —
// the last one at its own nesting level — or -1.
type brackets struct {
	partner []int32
	els     []int32
}

// matchBrackets pairs the brackets of p in one pass with a DO stack and an
// IF stack. DO and IF brackets nest independently, exactly like the
// ir.MatchingEnd / ir.MatchingHead / ir.MatchingEndIf scans, and an ELSE
// outside every IF pairs with the first ENDIF that closes no IF opened
// after it.
func matchBrackets(p *ir.Program) brackets {
	n := p.Len()
	buf := make([]int32, 2*n)
	b := brackets{partner: buf[:n:n], els: buf[n:]}
	for i := range buf {
		buf[i] = -1
	}
	var dos, ifs, strays []int32
	// owner[e] is the IF an ELSE at e belongs to; the ELSE takes that IF's
	// ENDIF once it is known.
	owner := map[int32]int32{}
	for i := 0; i < n; i++ {
		i32 := int32(i)
		switch p.At(i).Kind {
		case ir.SDoHead:
			dos = append(dos, i32)
		case ir.SDoEnd:
			if k := len(dos); k > 0 {
				b.partner[i], b.partner[dos[k-1]] = dos[k-1], i32
				dos = dos[:k-1]
			}
		case ir.SIf:
			ifs = append(ifs, i32)
		case ir.SElse:
			if k := len(ifs); k > 0 {
				b.els[ifs[k-1]] = i32
				owner[i32] = ifs[k-1]
			} else {
				strays = append(strays, i32)
			}
		case ir.SEndIf:
			if k := len(ifs); k > 0 {
				b.partner[ifs[k-1]] = i32
				ifs = ifs[:k-1]
			} else {
				for _, e := range strays {
					b.partner[e] = i32
				}
				strays = strays[:0]
			}
		}
	}
	for e, f := range owner {
		b.partner[e] = b.partner[f]
	}
	return b
}

// Reachable returns the set of statement indices reachable from entry
// (index 0). Statements can become unreachable after transformations.
func (g *Graph) Reachable() []bool {
	n := len(g.Succ)
	seen := make([]bool, n)
	if n == 0 {
		return seen
	}
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.Succ[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

// ReachableFrom returns the statements reachable from index i by following
// successor edges (i itself included).
func (g *Graph) ReachableFrom(i int) []bool {
	seen, _ := g.ReachInto(i, true, nil, nil)
	return seen
}

// Reaches returns the statements from which index i is reachable
// (i itself included).
func (g *Graph) Reaches(i int) []bool {
	seen, _ := g.ReachInto(i, false, nil, nil)
	return seen
}

// ReachInto is ReachableFrom (forward) or Reaches (backward) into the
// caller's storage: seen is resized to the graph and overwritten, stack is
// scratch. It returns both for reuse, so repeated queries allocate nothing
// once the buffers have grown.
func (g *Graph) ReachInto(start int, forward bool, seen []bool, stack []int) ([]bool, []int) {
	edges := g.Pred
	if forward {
		edges = g.Succ
	}
	seen = slices.Grow(seen[:0], len(edges))[:len(edges)]
	clear(seen)
	if start < 0 || start >= len(edges) {
		return seen, stack
	}
	stack = append(slices.Grow(stack[:0], len(edges)), start) // each node is pushed at most once
	seen[start] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range edges[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen, stack
}

// Block is a maximal straight-line run of statements: a basic block of the
// statement-level graph.
type Block struct {
	Start, End int // statement index range [Start, End]
}

// Blocks partitions the graph into basic blocks using the classic leader
// algorithm: the entry, every branch target, and every statement following a
// multi-successor statement begin a block.
func (g *Graph) Blocks() []Block {
	n := len(g.Succ)
	if n == 0 {
		return nil
	}
	leader := make([]bool, n)
	leader[0] = true
	for i := 0; i < n; i++ {
		if len(g.Succ[i]) > 1 {
			for _, t := range g.Succ[i] {
				leader[t] = true
			}
			if i+1 < n {
				leader[i+1] = true
			}
		}
		for _, t := range g.Succ[i] {
			if t != i+1 {
				leader[t] = true
				if i+1 < n {
					leader[i+1] = true
				}
			}
		}
	}
	var blocks []Block
	start := 0
	for i := 1; i < n; i++ {
		if leader[i] {
			blocks = append(blocks, Block{Start: start, End: i - 1})
			start = i
		}
	}
	blocks = append(blocks, Block{Start: start, End: n - 1})
	return blocks
}

// String renders the graph in a compact adjacency form for debugging.
func (g *Graph) String() string {
	var b strings.Builder
	for i, succ := range g.Succ {
		fmt.Fprintf(&b, "%3d %-30s ->", i, ir.FormatStmt(g.Prog.At(i)))
		for _, t := range succ {
			fmt.Fprintf(&b, " %d", t)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
