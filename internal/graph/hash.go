package graph

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
)

// Hash returns a canonical content hash of the graph: two graphs have
// equal hashes iff they are Equal (same node indexing, edge set, and
// labels). The hash is computed from the node count, the normalized
// sorted edge list, and the labels, so it is invariant under the order
// (and duplication) of the edge list handed to New — any construction of
// the same graph hashes identically. It is NOT an isomorphism invariant:
// relabeling node indices changes the hash.
//
// The service layer keys its Prepared-instance cache by this hash and
// the core game-engine memo table keys every transposition entry under
// it, so the hash must be collision-resistant against adversarial
// inputs; SHA-256 over an unambiguous (length-prefixed) encoding
// provides that. Graphs are immutable after construction, so the digest
// is computed once and cached — memo lookups on a warm graph pay a
// string copy, not a hash pass.
func (g *Graph) Hash() string {
	g.hashOnce.Do(func() { g.hashHex = HashOf(g.N(), g.Edges(), g.labels) })
	return g.hashHex
}

// hashStack sizes the stack buffer HashOf encodes into: a 30-node grid
// (49 edges, one-bit labels) takes about 1.1 KB, and larger graphs
// spill to the heap.
const hashStack = 2048

// HashOf is the Hash of the graph New(n, edges, labels) builds, computed
// without building it; it is the one definition of the hash's byte
// layout, so a caller that hashes a graph straight from its wire form
// (the router keys requests this way) gets the node cache's key. Labels
// may be strings or byte spans; nil means all empty, as in New. HashOf
// normalizes, sorts and dedupes edges in place, so the caller's slice is
// reordered. It does not validate: on arguments New rejects the value is
// some digest no graph has.
func HashOf[L ~string | ~[]byte](n int, edges []Edge, labels []L) string {
	for i, e := range edges {
		edges[i] = e.Normalize()
	}
	slices.SortFunc(edges, func(a, b Edge) int {
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
	edges = slices.Compact(edges)

	// SHA-256 over: node count, edge count, each edge's endpoints, then
	// each label length-prefixed so ["ab",""] and ["a","b"] differ; every
	// integer is 8 bytes little-endian.
	var stack [hashStack]byte
	buf := stack[:0]
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(edges)))
	for _, e := range edges {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.U))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.V))
	}
	if len(labels) == 0 {
		for range n {
			buf = binary.LittleEndian.AppendUint64(buf, 0)
		}
	}
	for _, l := range labels {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(l)))
		buf = append(buf, l...)
	}
	sum := sha256.Sum256(buf)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}
