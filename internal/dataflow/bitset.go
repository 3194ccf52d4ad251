// Package dataflow implements the iterative bitvector analyses the
// dependence analyzer is built on: reaching definitions (for flow and
// output dependences) and upward-exposed reaching uses (for anti
// dependences). Liveness is not on that path: Analyze and AnalyzeNames never
// compute it, and Analysis.LiveOutOf computes it for the analyzed snapshot
// on first use.
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
