package dep

// edgeChunkBits is log2 of the number of edges in one arena chunk.
const edgeChunkBits = 7

const (
	edgeChunk = 1 << edgeChunkBits // edges per chunk, 12 KiB in all
	edgeMask  = edgeChunk - 1
)

// edgeArena is a growable array of edges stored in fixed-size chunks.
// Index id lives at offset id&edgeMask of chunk id>>edgeChunkBits. A chunk
// is allocated once and never copied or regrown, so growing the arena
// allocates only the new chunk (not a copy of everything before it, as a
// slice grown by append would), and a *Dependence taken from it stays
// valid while the arena grows.
type edgeArena struct {
	chunks []*[edgeChunk]Dependence
	n      int32 // entries in use
}

// at returns the edge at index id, which must be below len.
func (a *edgeArena) at(id int32) *Dependence {
	return &a.chunks[id>>edgeChunkBits][id&edgeMask]
}

// len returns the number of entries in use.
func (a *edgeArena) len() int { return int(a.n) }

// push appends d and returns its index.
func (a *edgeArena) push(d Dependence) int32 {
	id := a.n
	if c := int(id >> edgeChunkBits); c == len(a.chunks) {
		a.chunks = append(a.chunks, new([edgeChunk]Dependence))
	}
	a.chunks[id>>edgeChunkBits][id&edgeMask] = d
	a.n++
	return id
}

// reset empties the arena and keeps its chunks for reuse. Every entry that
// was in use is zeroed, so the arena keeps no statement reachable.
func (a *edgeArena) reset() {
	for c := 0; a.n > 0; c++ {
		k := min(a.n, edgeChunk)
		clear(a.chunks[c][:k])
		a.n -= k
	}
}
