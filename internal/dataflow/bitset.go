// Package dataflow implements the iterative bitvector analyses the
// dependence analyzer is built on: reaching definitions (for flow and
// output dependences) and upward-exposed reaching uses (for anti
// dependences). Liveness is not on that path: Analyze and AnalyzeNames never
// compute it, and Analysis.LiveOutOf computes it for the analyzed snapshot
// on first use.
//
// Each fact family is a Facts: one flat word slice holding a bit per
// (statement, site) pair, a fixed stride of words per statement. A
// Workspace carves every family of one analysis, and the solvers' seed
// and mark sets, from one reused word buffer. The solvers are seeded,
// statement-ordered worklists: they start at the statements that generate
// a fact and visit only the statements whose inputs grew, in statement
// order (reverse order for backward problems), with one more round per
// back edge whose target must be revisited.
package dataflow

import "math/bits"

// BitSet is a fixed-capacity bit vector.
type BitSet struct {
	words []uint64
	n     int
}

// NewBitSet returns an empty set with capacity n.
func NewBitSet(n int) BitSet {
	return BitSet{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity of the set.
func (b BitSet) Len() int { return b.n }

// Set adds i to the set.
func (b BitSet) Set(i int) { b.words[i/64] |= 1 << (uint(i) % 64) }

// Clear removes i from the set.
func (b BitSet) Clear(i int) { b.words[i/64] &^= 1 << (uint(i) % 64) }

// Has reports whether i is in the set.
func (b BitSet) Has(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i/64]&(1<<(uint(i)%64)) != 0
}

// Copy returns an independent copy.
func (b BitSet) Copy() BitSet {
	c := BitSet{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// OrInto ors o into b, reporting whether b changed.
func (b BitSet) OrInto(o BitSet) bool {
	changed := false
	for i, w := range o.words {
		nw := b.words[i] | w
		if nw != b.words[i] {
			b.words[i] = nw
			changed = true
		}
	}
	return changed
}

// AndNotInto removes o's members from b.
func (b BitSet) AndNotInto(o BitSet) {
	for i, w := range o.words {
		b.words[i] &^= w
	}
}

// Equal reports set equality.
func (b BitSet) Equal(o BitSet) bool {
	if b.n != o.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Count returns the cardinality.
func (b BitSet) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// ForEach calls f for every member in ascending order.
func (b BitSet) ForEach(f func(i int)) {
	for wi, w := range b.words {
		for ; w != 0; w &= w - 1 {
			f(wi*64 + bits.TrailingZeros64(w))
		}
	}
}

// Facts is one fact family: a set of sites per statement, stored as one
// flat word slice with a stride of words per statement. Statement i's set
// is words[i*stride : (i+1)*stride].
type Facts struct {
	words  []uint64
	stride int
	sites  int
	stmts  int
}

// Len returns the number of statements.
func (f Facts) Len() int { return f.stmts }

// Has reports whether site is in statement stmt's set.
func (f Facts) Has(stmt, site int) bool {
	if site < 0 || site >= f.sites {
		return false
	}
	return f.words[stmt*f.stride+site/64]&(1<<(uint(site)%64)) != 0
}

// At returns statement stmt's set, a view of f's storage.
func (f Facts) At(stmt int) BitSet {
	lo, hi := stmt*f.stride, (stmt+1)*f.stride
	return BitSet{words: f.words[lo:hi:hi], n: f.sites}
}

func (f Facts) set(stmt, site int) { setBit(f.words[stmt*f.stride:], site) }

func setBit(words []uint64, i int) { words[i/64] |= 1 << (uint(i) % 64) }

// nextMark returns the first member of the word set mark at or after i, or
// a value at least 64*len(mark) when there is none.
func nextMark(mark []uint64, i int) int {
	wi := i / 64
	if wi >= len(mark) {
		return 64 * len(mark)
	}
	if w := mark[wi] >> (uint(i) % 64); w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(mark); wi++ {
		if mark[wi] != 0 {
			return 64*wi + bits.TrailingZeros64(mark[wi])
		}
	}
	return 64 * len(mark)
}

// prevMark returns the last member of the word set mark at or before i, or
// -1 when there is none.
func prevMark(mark []uint64, i int) int {
	if i < 0 {
		return -1
	}
	wi := i / 64
	if w := mark[wi] << (63 - uint(i)%64); w != 0 {
		return i - bits.LeadingZeros64(w)
	}
	for wi--; wi >= 0; wi-- {
		if mark[wi] != 0 {
			return 64*wi + 63 - bits.LeadingZeros64(mark[wi])
		}
	}
	return -1
}
