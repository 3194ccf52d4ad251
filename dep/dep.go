// Package dep computes the data and control dependences GOSpeL
// preconditions are written in terms of: flow (δ), anti (δ̄), output (δ°)
// and control (δᶜ) dependences, each annotated with a direction vector over
// the loops common to the two statements (the paper, Section 2).
//
// Scalars are analyzed with the reaching-definitions / upward-exposed-uses
// dataflow from internal/dataflow, split into loop-independent and
// loop-carried dependences by re-running the analysis on the acyclic
// (back-edge-free) flow graph. Array references are analyzed pairwise with
// classical subscript tests (ZIV, strong SIV, and a GCD fallback), producing
// per-level direction sets.
package dep

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/dataflow"
	"repro/ir"
)

// Kind is the dependence type.
type Kind int

const (
	Flow Kind = iota
	Anti
	Output
	Control
)

func (k Kind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	case Output:
		return "output"
	case Control:
		return "control"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// DirSet is a set of possible directions at one loop level, a bitmask over
// {<, =, >}.
type DirSet uint8

const (
	DirLT  DirSet = 1 << iota // source iteration earlier (forward, '<')
	DirEQ                     // same iteration ('=')
	DirGT                     // source iteration later (backward, '>')
	DirAny = DirLT | DirEQ | DirGT
)

// Has reports whether d includes dir.
func (d DirSet) Has(dir DirSet) bool { return d&dir != 0 }

// Intersect returns the intersection.
func (d DirSet) Intersect(o DirSet) DirSet { return d & o }

// Reverse maps each direction to its opposite (swap of source and sink).
func (d DirSet) Reverse() DirSet {
	var r DirSet
	if d.Has(DirLT) {
		r |= DirGT
	}
	if d.Has(DirGT) {
		r |= DirLT
	}
	if d.Has(DirEQ) {
		r |= DirEQ
	}
	return r
}

func (d DirSet) String() string {
	switch d {
	case DirAny:
		return "*"
	case DirLT:
		return "<"
	case DirEQ:
		return "="
	case DirGT:
		return ">"
	case 0:
		return "∅"
	}
	var b strings.Builder
	if d.Has(DirLT) {
		b.WriteByte('<')
	}
	if d.Has(DirEQ) {
		b.WriteByte('=')
	}
	if d.Has(DirGT) {
		b.WriteByte('>')
	}
	return b.String()
}

// Vector is a direction vector: one DirSet per common loop, outermost first.
// A nil/empty vector means the statements share no loop (loop-independent
// dependence at nesting level zero).
type Vector []DirSet

func (v Vector) String() string {
	if len(v) == 0 {
		return "()"
	}
	parts := make([]string, len(v))
	for i, d := range v {
		parts[i] = d.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Clone returns a copy of the vector.
func (v Vector) Clone() Vector { return append(Vector{}, v...) }

// Matches reports whether this dependence vector is compatible with a
// requested pattern, where each pattern element is a DirSet (use DirAny for
// the paper's '*'). An empty pattern (direction vector omitted in the
// specification) matches any vector. When the lengths differ the shorter
// side is padded: a dependence vector extends with '=' (the dependence is
// loop-independent with respect to loops it is not carried by — this is
// what lets the paper write flow_dep(Si, Sj, (=)) for statements at any
// nesting depth), and a pattern extends with '*' (unconstrained inner
// levels).
func (v Vector) Matches(pattern Vector) bool {
	if len(pattern) == 0 {
		return true
	}
	n := len(v)
	if len(pattern) > n {
		n = len(pattern)
	}
	for i := 0; i < n; i++ {
		ve, pe := DirEQ, DirAny
		if i < len(v) {
			ve = v[i]
		}
		if i < len(pattern) {
			pe = pattern[i]
		}
		if ve.Intersect(pe) == 0 {
			return false
		}
	}
	return true
}

// Dependence is one edge of the dependence graph: Src δ Dst.
type Dependence struct {
	Kind Kind
	Src  *ir.Stmt
	Dst  *ir.Stmt
	// Vec has one entry per loop common to Src and Dst, outermost first.
	Vec Vector
	// Var is the variable (scalar or array name) causing the dependence;
	// empty for control dependences.
	Var string
	// SrcPos / DstPos are the operand positions involved at each end
	// (the paper's optional (S, pos) result); 0 when not applicable
	// (e.g. subscript uses or control dependences).
	SrcPos int
	DstPos int
	// Carried reports a loop-carried dependence (some level is not '=').
	Carried bool
	// Level is the carrying loop level (1 = outermost common loop);
	// 0 for loop-independent dependences.
	Level int
}

func (d Dependence) String() string {
	return fmt.Sprintf("%s_dep(S%d → S%d, %s, %s)", d.Kind, d.Src.ID, d.Dst.ID, d.Var, d.Vec)
}

// Graph is the dependence graph of one program snapshot. Compute builds it
// from scratch; Update keeps it equal to a fresh Compute — edge for edge,
// canonical order included — across the journaled edits of each applied
// optimization.
type Graph struct {
	Prog *ir.Program

	// Entry is a synthetic statement standing for the implicit
	// zero-initialization of every scalar at program entry. A flow
	// dependence Entry → S marks a possibly-uninitialized use: the value
	// read at S is not always produced by an explicit definition, so
	// single-reaching-definition reasoning (constant and copy propagation)
	// must treat Entry as another reaching definition. Entry is not part
	// of the program's statement list.
	Entry *ir.Stmt

	// flow is the dataflow analysis (liveness etc.) Dataflow returns,
	// computed on its first call after a build or update. The builds and
	// updates themselves analyze in up.flow, which they overwrite.
	flow *dataflow.Analysis

	// The edge store. edges is a chunked arena addressed by edge ID (see
	// edgeArena), class holds each edge's lookup class, and free lists the
	// IDs of dropped edges for reuse. from[k] and to[k] hold the IDs of the
	// edges leaving and entering the statement in slot k (see slot), each
	// in canonical order: a statement's outgoing edges are sorted by (kind,
	// destination position, ...), so an exact (kind, src, dst) query is a
	// binary search of one bucket. stmts[k-1] is the statement slot k held when the
	// buckets were last laid out; Update carries each bucket along with
	// its statement across inserts, deletes and moves.
	edges edgeArena
	class []edgeClass
	free  []int32
	from  [][]int32
	to    [][]int32
	stmts []*ir.Stmt
	// fromIDs and toIDs are the flat slices commit carves the buckets
	// from, each bucket with its exact capacity.
	fromIDs, toIDs []int32

	// scalars indexes the scalar-class edges by variable, so Update finds
	// the edges of a dirty name without walking the graph.
	scalars map[string][]int32

	// byKind[k] lists the candidates of a kind-only query — kind k's run of
	// every from bucket, in slot order. It is built by the first such query
	// after the edge store changed (kindsOK[k] false), so a search's many
	// kind-only queries share one walk of the buckets.
	byKind  [numKinds][]int32
	kindsOK [numKinds]bool
	// counts[k] memoizes the answers of kind k's wildcard Counts. It is
	// dropped whenever kindList rebuilds byKind[k], so it never outlives
	// an edit.
	counts [numKinds]countMemo

	// arrays names every array accessed by the program, so lookup counters
	// can classify data edges as scalar or array. Filled by arrayDeps.
	arrays map[string]bool

	// pending collects the edges a derivation emits until commit (a full
	// build) or splice (an incremental update) lays them out.
	pending edgeArena
	// lt is the loop table of the current snapshot. Update rebuilds it
	// only when statements were inserted, deleted or moved.
	lt *loopTable
	// up is Update's scratch, reused across calls.
	up updateScratch

	// stats counts this graph's query and maintenance traffic. Plain (not
	// atomic) counters: a Graph, like a Program, is not safe for concurrent
	// use, and each fixpoint pass owns its graph.
	stats Stats
}

// edgeClass is the lookup-counter class of an edge: the Stats field its
// examination increments.
type edgeClass uint8

const (
	scalarEdge edgeClass = iota
	arrayEdge
	controlEdge
)

// Stats counts a graph's query and maintenance traffic. Lookups count the
// candidate edges Query/Exists examined, classified by the edge: control
// dependences, data dependences on array locations, and data dependences
// on scalars. Updates count how the graph was refreshed after program
// edits: in place from the change journal (incremental) or by the
// structural fallback's full recomputation.
type Stats struct {
	ScalarLookups      int64
	ArrayLookups       int64
	ControlLookups     int64
	IncrementalUpdates int64
	StructuralRebuilds int64
}

// Add returns the element-wise sum.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		ScalarLookups:      s.ScalarLookups + o.ScalarLookups,
		ArrayLookups:       s.ArrayLookups + o.ArrayLookups,
		ControlLookups:     s.ControlLookups + o.ControlLookups,
		IncrementalUpdates: s.IncrementalUpdates + o.IncrementalUpdates,
		StructuralRebuilds: s.StructuralRebuilds + o.StructuralRebuilds,
	}
}

// Sub returns the element-wise difference (for phase deltas).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		ScalarLookups:      s.ScalarLookups - o.ScalarLookups,
		ArrayLookups:       s.ArrayLookups - o.ArrayLookups,
		ControlLookups:     s.ControlLookups - o.ControlLookups,
		IncrementalUpdates: s.IncrementalUpdates - o.IncrementalUpdates,
		StructuralRebuilds: s.StructuralRebuilds - o.StructuralRebuilds,
	}
}

// Stats returns the graph's traffic counters (monotonic over the graph's
// lifetime; recomputations do not reset them).
func (g *Graph) Stats() Stats { return g.stats }

// countLookup counts one examined candidate edge under its class.
func (g *Graph) countLookup(id int32) {
	switch g.class[id] {
	case controlEdge:
		g.stats.ControlLookups++
	case arrayEdge:
		g.stats.ArrayLookups++
	default:
		g.stats.ScalarLookups++
	}
}

// classify returns d's lookup class under the current array census.
func (g *Graph) classify(d *Dependence) edgeClass {
	switch {
	case d.Kind == Control:
		return controlEdge
	case g.arrays[d.Var]:
		return arrayEdge
	}
	return scalarEdge
}

// noteArray adds name to the array census. Scalar-class edges already on
// that name move to the array class, as a census lookup at query time
// would classify them.
func (g *Graph) noteArray(name string) {
	if g.arrays[name] {
		return
	}
	g.arrays[name] = true
	for _, id := range g.scalars[name] {
		g.class[id] = arrayEdge
	}
	delete(g.scalars, name)
}

// numKinds is the number of Kind values (Flow..Control).
const numKinds = 4

// slot maps a statement to its bucket index: position+1, with 0 for the
// synthetic Entry statement. A statement not in the program also maps to
// 0, so every query filters candidates by endpoint identity.
func (g *Graph) slot(s *ir.Stmt) int {
	if s == g.Entry {
		return 0
	}
	return g.Prog.Index(s) + 1
}

// liveSlot is slot, but -1 for a statement not in the program.
func (g *Graph) liveSlot(s *ir.Stmt) int {
	if s == g.Entry {
		return 0
	}
	if i := g.Prog.Index(s); i >= 0 {
		return i + 1
	}
	return -1
}

// pos is the statement position the canonical order compares: -1 for
// Entry, which sorts first.
func (g *Graph) pos(s *ir.Stmt) int {
	if s == g.Entry {
		return -1
	}
	return g.Prog.Index(s)
}

// Dataflow returns the dataflow analysis for the current snapshot, computing
// it on demand when an incremental update invalidated the cached one.
func (g *Graph) Dataflow() *dataflow.Analysis {
	if g.flow == nil {
		g.flow = dataflow.Analyze(g.Prog)
	}
	return g.flow
}

// Compute builds the full dependence graph for p.
func Compute(p *ir.Program) *Graph {
	g := &Graph{Prog: p, Entry: &ir.Stmt{Kind: ir.SAssign}}
	g.recompute()
	return g
}

// recompute rebuilds the whole graph in place, preserving the Entry
// statement's identity so existing bindings to it stay valid.
func (g *Graph) recompute() {
	p := g.Prog
	// The old arena is dead: derive into its chunks, and commit adopts
	// them again. The pending arena, empty between builds, takes its place
	// until then.
	g.edges.reset()
	g.pending, g.edges = g.edges, g.pending
	clear(g.scalars)
	g.arrays = make(map[string]bool)
	g.lt = buildLoopTable(p, g.lt)
	g.flow = nil
	g.scalarDepsFrom(g.up.flow.AnalyzeNames(p, nil), g.lt)
	g.arrayDeps(g.lt, nil)
	g.controlDeps()
	g.commit()
}

// add queues a derived edge for layout.
func (g *Graph) add(d Dependence) {
	if d.Src == nil || d.Dst == nil {
		return
	}
	g.pending.push(d)
}

// insert stores d under a fresh or recycled ID and indexes it by name when
// it is a scalar edge. The caller places the ID in its buckets.
func (g *Graph) insert(d Dependence) int32 {
	c := g.classify(&d)
	var id int32
	if k := len(g.free); k > 0 {
		id, g.free = g.free[k-1], g.free[:k-1]
		*g.edges.at(id), g.class[id] = d, c
	} else {
		id = g.edges.push(d)
		g.class = append(g.class, c)
	}
	if c == scalarEdge {
		if g.scalars == nil {
			g.scalars = make(map[string][]int32)
		}
		g.scalars[d.Var] = append(g.scalars[d.Var], id)
	}
	return id
}

// commit lays out a full build: the pending edges, sorted canonically with
// exact duplicates dropped, fill fresh buckets in order. Derivations may
// emit one edge several times; the comparison covers every field (Vec
// determines Level and Carried), so duplicates sort next to each other.
// The pending arena becomes the edge arena: each edge keeps its pending
// index as its ID, and a dropped duplicate's ID goes to the free list. The
// emptied edge arena's chunks become the next pending arena.
func (g *Graph) commit() {
	g.kindsOK = [numKinds]bool{}
	n := g.Prog.Len() + 1
	g.stmts = append(g.stmts[:0], g.Prog.Stmts()...)
	order := g.sortPending(g.key)
	g.edges, g.pending = g.pending, g.edges
	g.class = slices.Grow(g.class[:0], g.edges.len())[:g.edges.len()]
	g.free = g.free[:0]
	kept := order[:0]
	for _, k := range order {
		d := g.edges.at(k.id)
		if len(kept) > 0 && repeats(&g.edges, kept[len(kept)-1], k) {
			*d = Dependence{}
			g.free = append(g.free, k.id)
			continue
		}
		kept = append(kept, k)
		c := g.classify(d)
		g.class[k.id] = c
		if c == scalarEdge {
			if g.scalars == nil {
				g.scalars = make(map[string][]int32)
			}
			g.scalars[d.Var] = append(g.scalars[d.Var], k.id)
		}
	}
	g.from, g.fromIDs = g.layout(g.from, g.fromIDs, n, kept, 31)
	g.to, g.toIDs = g.layout(g.to, g.toIDs, n, kept, 0)
}

// layout returns n buckets holding the IDs of ks in order, each edge in
// the bucket of the slot its key holds at bit shift. A counting pass sizes
// the buckets, which are carved from the flat slice ids with their exact
// capacity, so an append that outgrows one bucket reallocates only that
// bucket. The storage of b and ids is reused.
func (g *Graph) layout(b [][]int32, ids []int32, n int, ks []keyed, shift uint) ([][]int32, []int32) {
	count := slices.Grow(g.up.count[:0], n)[:n]
	clear(count)
	for _, k := range ks {
		count[k.key>>shift&posMask]++
	}
	ids = slices.Grow(ids[:0], len(ks))[:len(ks)]
	b = slices.Grow(b[:0], n)[:n]
	off := 0
	for i, c := range count {
		b[i] = ids[off : off : off+c]
		off += c
	}
	for _, k := range ks {
		i := k.key >> shift & posMask
		b[i] = append(b[i], k.id)
	}
	g.up.count = count
	return b, ids
}

// keyed is an edge ID (or pending index) with its sort key.
type keyed struct {
	key uint64
	id  int32
}

// A sort key packs an edge's kind and its two statement slots (position+1,
// so Entry is 0) into one integer, in the order a sort needs; the fields
// after them in the canonical order (compareRest) only break key ties.
// Slots take 31 bits and the kind 2.
const posMask = 1<<31 - 1

// key orders by (kind, source, destination). Followed by compareRest it is
// the canonical edge order: a total order on distinct edges, anchored at
// statement positions (Entry first).
func (g *Graph) key(d *Dependence) uint64 {
	return uint64(d.Kind)<<62 | uint64(g.pos(d.Src)+1)<<31 | uint64(g.pos(d.Dst)+1)
}

// srcKey orders by (source, kind, destination): the canonical order
// grouped by source bucket.
func (g *Graph) srcKey(d *Dependence) uint64 {
	return uint64(g.pos(d.Src)+1)<<33 | uint64(d.Kind)<<31 | uint64(g.pos(d.Dst)+1)
}

// dstKey orders by (destination, kind, source): the canonical order
// grouped by destination bucket.
func (g *Graph) dstKey(d *Dependence) uint64 {
	return uint64(g.pos(d.Dst)+1)<<33 | uint64(d.Kind)<<31 | uint64(g.pos(d.Src)+1)
}

// sortKeyed sorts ks by key, breaking ties by the rest of the canonical
// order on the edges the IDs index.
func sortKeyed(ks []keyed, edges *edgeArena) {
	slices.SortFunc(ks, func(x, y keyed) int {
		if x.key != y.key {
			return cmp.Compare(x.key, y.key)
		}
		return compareRest(edges.at(x.id), edges.at(y.id))
	})
}

// sortPending returns the pending edges ordered by key and then by the rest
// of the canonical order; identical edges are adjacent.
func (g *Graph) sortPending(key func(*Dependence) uint64) []keyed {
	n := g.pending.len()
	ks := slices.Grow(g.up.keyed[:0], n)
	for i := range int32(n) {
		ks = append(ks, keyed{key(g.pending.at(i)), i})
	}
	sortKeyed(ks, &g.pending)
	g.up.keyed = ks
	return ks
}

// repeats reports whether b, sorted after a by sortKeyed over edges, is
// the same edge as a.
func repeats(edges *edgeArena, a, b keyed) bool {
	return a.key == b.key && compareRest(edges.at(a.id), edges.at(b.id)) == 0
}

// compareRest is the canonical order after kind, source and destination
// position.
func compareRest(a, b *Dependence) int {
	if c := strings.Compare(a.Var, b.Var); c != 0 {
		return c
	}
	if c := cmp.Compare(a.SrcPos, b.SrcPos); c != 0 {
		return c
	}
	if c := cmp.Compare(a.DstPos, b.DstPos); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Level, b.Level); c != 0 {
		return c
	}
	if a.Carried != b.Carried {
		if a.Carried {
			return 1
		}
		return -1
	}
	if c := cmp.Compare(len(a.Vec), len(b.Vec)); c != 0 {
		return c
	}
	return slices.Compare(a.Vec, b.Vec)
}

// kindRange returns the part of a canonically ordered from bucket holding
// edges of kind.
func (g *Graph) kindRange(b []int32, kind Kind) []int32 {
	lo, _ := slices.BinarySearchFunc(b, kind, func(id int32, k Kind) int {
		return cmp.Compare(g.edges.at(id).Kind, k)
	})
	hi, _ := slices.BinarySearchFunc(b[lo:], kind+1, func(id int32, k Kind) int {
		return cmp.Compare(g.edges.at(id).Kind, k)
	})
	return b[lo : lo+hi]
}

// exactRange returns the part of a canonically ordered from bucket holding
// edges of kind into the statement in slot dst.
func (g *Graph) exactRange(b []int32, kind Kind, dst int) []int32 {
	key := func(id int32) int {
		d := g.edges.at(id)
		return int(d.Kind)<<32 | g.slot(d.Dst)
	}
	want := int(kind)<<32 | dst
	lo, _ := slices.BinarySearchFunc(b, want, func(id int32, w int) int { return cmp.Compare(key(id), w) })
	hi, _ := slices.BinarySearchFunc(b[lo:], want+1, func(id int32, w int) int { return cmp.Compare(key(id), w) })
	return b[lo : lo+hi]
}

// kindList returns the candidates of a kind-only query.
func (g *Graph) kindList(kind Kind) []int32 {
	if !g.kindsOK[kind] {
		ids := g.byKind[kind][:0]
		for _, b := range g.from {
			ids = append(ids, g.kindRange(b, kind)...)
		}
		g.byKind[kind], g.kindsOK[kind] = ids, true
		g.counts[kind].reset()
	}
	return g.byKind[kind]
}

// countMemo holds the answered wildcard Counts of one kind: each pattern
// with its match count, and the lookup traffic one walk of the kind list
// records (every candidate is examined whatever the pattern, so one delta
// serves all patterns). The patterns are stored back to back in dirs, and
// reset keeps that storage, so once warm a lookup or an insert allocates
// nothing.
type countMemo struct {
	lookups Stats
	dirs    []DirSet
	entries []countEntry
}

// countEntry is one memoized pattern: dirs[off:end] and its count.
type countEntry struct {
	off, end int32
	n        int
}

func (m *countMemo) reset() {
	m.dirs, m.entries = m.dirs[:0], m.entries[:0]
}

// find returns the memoized count for pattern and whether there is one.
// Patterns compare element-wise, so nil and empty are the same pattern, as
// Vector.Matches treats them.
func (m *countMemo) find(pattern Vector) (int, bool) {
	for _, e := range m.entries {
		if slices.Equal(m.dirs[e.off:e.end], pattern) {
			return e.n, true
		}
	}
	return 0, false
}

func (m *countMemo) add(pattern Vector, n int) {
	off := int32(len(m.dirs))
	m.dirs = append(m.dirs, pattern...)
	m.entries = append(m.entries, countEntry{off, int32(len(m.dirs)), n})
}

// Deps returns every edge of the graph in canonical order: by kind, then
// source position (Entry first), destination position, variable, operand
// positions, level and vector. It is assembled from the per-statement
// buckets on each call.
func (g *Graph) Deps() []Dependence {
	out := make([]Dependence, 0, g.edges.len()-len(g.free))
	for k := Kind(0); k < numKinds; k++ {
		for _, b := range g.from {
			for _, id := range g.kindRange(b, k) {
				out = append(out, *g.edges.at(id))
			}
		}
	}
	return out
}

// From returns the dependences emanating from s.
func (g *Graph) From(s *ir.Stmt) []Dependence {
	var out []Dependence
	for _, id := range g.from[g.slot(s)] {
		if d := g.edges.at(id); d.Src == s {
			out = append(out, *d)
		}
	}
	return out
}

// To returns the dependences terminating at s.
func (g *Graph) To(s *ir.Stmt) []Dependence {
	var out []Dependence
	for _, id := range g.to[g.slot(s)] {
		if d := g.edges.at(id); d.Dst == s {
			out = append(out, *d)
		}
	}
	return out
}

// candidates returns, in canonical order, the IDs of the edges a
// (kind, src, dst) query with nil wildcards must examine: for an exact
// query the (kind, dst) run of src's bucket, for a one-sided query the
// whole bucket of the given statement, and for a kind-only query that
// kind's run of every bucket in statement order. Callers still filter:
// one-sided buckets hold every kind, and slot 0 conflates Entry with
// statements no longer in the program.
func (g *Graph) candidates(kind Kind, src, dst *ir.Stmt) []int32 {
	switch {
	case src != nil && dst != nil:
		return g.exactRange(g.from[g.slot(src)], kind, g.slot(dst))
	case src != nil:
		return g.from[g.slot(src)]
	case dst != nil:
		return g.to[g.slot(dst)]
	}
	return g.kindList(kind)
}

func (g *Graph) matches(d *Dependence, kind Kind, src, dst *ir.Stmt, pattern Vector) bool {
	return d.Kind == kind &&
		(src == nil || d.Src == src) &&
		(dst == nil || d.Dst == dst) &&
		d.Vec.Matches(pattern)
}

// Query returns all dependences of the given kind between src and dst
// matching the direction pattern. Either src or dst may be nil as a
// wildcard. This is the paper's dep routine (Fig. 7) generalized to return
// the full match set; the engine layers the LST/IF search modes on top. An
// exact query binary-searches the source's bucket; wildcard forms scan the
// given statement's bucket or one kind's run of every bucket, never the
// whole graph.
func (g *Graph) Query(kind Kind, src, dst *ir.Stmt, pattern Vector) []Dependence {
	var out []Dependence
	g.Visit(kind, src, dst, pattern, func(d *Dependence) { out = append(out, *d) })
	return out
}

// Visit calls fn on each dependence Query would return, in the same order
// and with the same lookup accounting, without copying the edges. fn must
// neither keep d nor change the graph.
func (g *Graph) Visit(kind Kind, src, dst *ir.Stmt, pattern Vector, fn func(d *Dependence)) {
	for _, id := range g.candidates(kind, src, dst) {
		d := g.edges.at(id)
		g.countLookup(id)
		if g.matches(d, kind, src, dst, pattern) {
			fn(d)
		}
	}
}

// Count returns len(Query(kind, src, dst, pattern)) without materializing
// the matches; Stats moves by exactly what the Query would have added.
// The engine's enumeration-order heuristic only needs the size. A
// kind-only count (nil src and dst) walks the kind list once per pattern
// between edits: repeats answer from the kind's countMemo and replay the
// lookups the walk recorded.
func (g *Graph) Count(kind Kind, src, dst *ir.Stmt, pattern Vector) int {
	if src != nil || dst != nil {
		n := 0
		g.Visit(kind, src, dst, pattern, func(*Dependence) { n++ })
		return n
	}
	g.kindList(kind) // drops a stale memo
	m := &g.counts[kind]
	if n, ok := m.find(pattern); ok {
		g.stats = g.stats.Add(m.lookups)
		return n
	}
	before, n := g.stats, 0
	g.Visit(kind, nil, nil, pattern, func(*Dependence) { n++ })
	m.lookups = g.stats.Sub(before)
	m.add(pattern, n)
	return n
}

// Exists reports whether any dependence matches the query. Unlike Query it
// allocates nothing and stops at the first match.
func (g *Graph) Exists(kind Kind, src, dst *ir.Stmt, pattern Vector) bool {
	for _, id := range g.candidates(kind, src, dst) {
		g.countLookup(id)
		if g.matches(g.edges.at(id), kind, src, dst, pattern) {
			return true
		}
	}
	return false
}

// String renders the graph for debugging.
func (g *Graph) String() string {
	var b strings.Builder
	for _, d := range g.Deps() {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}
