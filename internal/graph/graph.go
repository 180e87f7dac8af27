// Package graph implements the labeled graphs of Reiter's "A LOCAL View of
// the Polynomial Hierarchy" (PODC 2024), Section 3.
//
// All graphs are finite, simple, undirected, and connected. Every node
// carries a label, which is a bit string over {0,1}. Nodes are identified by
// dense integer indices 0..N-1; graph properties in this library are always
// invariant under relabeling of those indices (isomorphism).
package graph

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Common validation errors returned by New.
var (
	// ErrEmptyGraph is returned when a graph has no nodes.
	ErrEmptyGraph = errors.New("graph: must have at least one node")
	// ErrNotConnected is returned when the edge set does not connect all nodes.
	ErrNotConnected = errors.New("graph: not connected")
	// ErrInvalidLabel is returned when a node label contains characters
	// other than '0' and '1'.
	ErrInvalidLabel = errors.New("graph: label must be a bit string over {0,1}")
)

// Edge is an undirected edge between two node indices.
type Edge struct {
	U, V int
}

// Normalize returns the edge with endpoints ordered so that U <= V.
func (e Edge) Normalize() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// Graph is a finite, simple, undirected, connected, labeled graph.
// The zero value is not a valid graph; use New or a generator.
type Graph struct {
	adj    [][]int  // adjacency lists, each sorted ascending
	labels []string // labels[u] is the bit-string label of node u

	// Derived read-only fast paths shared by all relabelings of the same
	// edge set: a packed adjacency bitset (row u occupies words
	// [u*stride, (u+1)*stride), bit v set iff {u,v} is an edge) giving
	// O(1) HasEdge, and the cached degree array behind Degrees. For
	// graphs above bitsetMaxNodes the bitset is skipped (quadratic
	// memory) and HasEdge falls back to binary search.
	bits    []uint64
	stride  int
	degrees []int

	// hashOnce/hashHex cache the canonical content hash (see Hash): the
	// graph is immutable after construction, so the digest never changes.
	hashOnce sync.Once
	hashHex  string
}

// bitsetMaxNodes bounds the O(n²/8) adjacency bitset; beyond it HasEdge
// falls back to binary-searching the adjacency list.
const bitsetMaxNodes = 1 << 12

// buildFastPaths computes the derived structures from g.adj.
func (g *Graph) buildFastPaths() {
	n := len(g.adj)
	g.degrees = make([]int, n)
	for u := range g.adj {
		g.degrees[u] = len(g.adj[u])
	}
	if n > bitsetMaxNodes {
		return
	}
	g.stride = (n + 63) / 64
	g.bits = make([]uint64, n*g.stride)
	for u := range g.adj {
		row := g.bits[u*g.stride : (u+1)*g.stride]
		for _, v := range g.adj[u] {
			row[v>>6] |= 1 << (uint(v) & 63)
		}
	}
}

// New constructs a labeled graph with n nodes, the given undirected edges,
// and the given labels (one per node; nil means all labels empty).
// It validates simplicity, connectivity, and label alphabet.
func New(n int, edges []Edge, labels []string) (*Graph, error) {
	if n <= 0 {
		return nil, ErrEmptyGraph
	}
	if labels != nil && len(labels) != n {
		return nil, fmt.Errorf("graph: got %d labels for %d nodes", len(labels), n)
	}
	for u, l := range labels {
		if !IsBitString(l) {
			return nil, fmt.Errorf("node %d label %q: %w", u, l, ErrInvalidLabel)
		}
	}
	// n nodes need n−1 edges to be connected. Checking that first keeps a
	// tiny input claiming a huge n from allocating anything that grows
	// with n.
	if len(edges) < n-1 {
		return nil, ErrNotConnected
	}
	if labels == nil {
		labels = make([]string, n)
	}
	adj := make([][]int, n)
	seen := make(map[Edge]bool, len(edges))
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self-loop at node %d", e.U)
		}
		ne := e.Normalize()
		if seen[ne] {
			continue // ignore duplicate edges
		}
		seen[ne] = true
		adj[ne.U] = append(adj[ne.U], ne.V)
		adj[ne.V] = append(adj[ne.V], ne.U)
	}
	for u := range adj {
		sort.Ints(adj[u])
	}
	g := &Graph{adj: adj, labels: append([]string(nil), labels...)}
	if !g.isConnected() {
		return nil, ErrNotConnected
	}
	g.buildFastPaths()
	return g, nil
}

// MustNew is New but panics on error. Intended for tests and fixed fixtures.
func MustNew(n int, edges []Edge, labels []string) *Graph {
	g, err := New(n, edges, labels)
	if err != nil {
		panic(err)
	}
	return g
}

// IsBitString reports whether s consists solely of '0' and '1' characters.
func IsBitString[S ~string | ~[]byte](s S) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' && s[i] != '1' {
			return false
		}
	}
	return true
}

// N returns the number of nodes (the cardinality card(G)).
func (g *Graph) N() int { return len(g.adj) }

// Degree returns the degree of node u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Degrees returns the cached degree array, indexed by node. The returned
// slice must not be modified.
func (g *Graph) Degrees() []int { return g.degrees }

// Neighbors returns the neighbors of u in ascending index order.
// The returned slice must not be modified.
func (g *Graph) Neighbors(u int) []int { return g.adj[u] }

// Label returns the label of node u.
func (g *Graph) Label(u int) string { return g.labels[u] }

// Labels returns a copy of all node labels.
func (g *Graph) Labels() []string { return append([]string(nil), g.labels...) }

// HasEdge reports whether {u,v} is an edge of g. With the adjacency
// bitset built (every graph up to bitsetMaxNodes nodes) this is a single
// word probe; larger graphs binary-search the adjacency list.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	if g.bits != nil {
		return g.bits[u*g.stride+v>>6]&(1<<(uint(v)&63)) != 0
	}
	a := g.adj[u]
	i := sort.SearchInts(a, v)
	return i < len(a) && a[i] == v
}

// Edges returns all edges, each normalized with U < V, sorted.
func (g *Graph) Edges() []Edge {
	var es []Edge
	for u := range g.adj {
		for _, v := range g.adj[u] {
			if u < v {
				es = append(es, Edge{U: u, V: v})
			}
		}
	}
	return es
}

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int {
	m := 0
	for u := range g.adj {
		m += len(g.adj[u])
	}
	return m / 2
}

// WithLabels returns a copy of g carrying the given labels.
func (g *Graph) WithLabels(labels []string) (*Graph, error) {
	if len(labels) != g.N() {
		return nil, fmt.Errorf("graph: got %d labels for %d nodes", len(labels), g.N())
	}
	for u, l := range labels {
		if !IsBitString(l) {
			return nil, fmt.Errorf("node %d label %q: %w", u, l, ErrInvalidLabel)
		}
	}
	return &Graph{adj: g.adj, labels: append([]string(nil), labels...),
		bits: g.bits, stride: g.stride, degrees: g.degrees}, nil
}

// MustWithLabels is WithLabels but panics on error.
func (g *Graph) MustWithLabels(labels []string) *Graph {
	h, err := g.WithLabels(labels)
	if err != nil {
		panic(err)
	}
	return h
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	adj := make([][]int, len(g.adj))
	for u := range g.adj {
		adj[u] = append([]int(nil), g.adj[u]...)
	}
	h := &Graph{adj: adj, labels: append([]string(nil), g.labels...)}
	h.buildFastPaths()
	return h
}

func (g *Graph) isConnected() bool {
	if len(g.adj) == 0 {
		return false
	}
	seen := make([]bool, len(g.adj))
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == len(g.adj)
}

// BFS returns the distances from src to every node (in edges).
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Distance returns the hop distance between u and v.
func (g *Graph) Distance(u, v int) int { return g.BFS(u)[v] }

// Diameter returns the diameter of g (0 for a single node).
func (g *Graph) Diameter() int {
	d := 0
	for u := 0; u < g.N(); u++ {
		for _, x := range g.BFS(u) {
			if x > d {
				d = x
			}
		}
	}
	return d
}

// Ball returns the set of nodes at distance at most r from u, in ascending
// index order. For r = 0 it is {u}.
func (g *Graph) Ball(u, r int) []int {
	dist := g.BFS(u)
	var out []int
	for v, d := range dist {
		if d >= 0 && d <= r {
			out = append(out, v)
		}
	}
	return out
}

// Neighborhood returns the r-neighborhood N^G_r(u) as a new graph (the
// subgraph induced by Ball(u, r), with labels restricted), together with
// the mapping from new indices to original indices.
//
// Note that induced subgraphs of connected graphs are connected whenever
// they are balls around a node, so the result is always a valid Graph.
func (g *Graph) Neighborhood(u, r int) (*Graph, []int) {
	ball := g.Ball(u, r)
	idx := make(map[int]int, len(ball))
	for i, v := range ball {
		idx[v] = i
	}
	var edges []Edge
	labels := make([]string, len(ball))
	for i, v := range ball {
		labels[i] = g.labels[v]
		for _, w := range g.adj[v] {
			if j, ok := idx[w]; ok && i < j {
				edges = append(edges, Edge{U: i, V: j})
			}
		}
	}
	sub, err := New(len(ball), edges, labels)
	if err != nil {
		// Unreachable: a ball around u is always nonempty and connected.
		panic(fmt.Sprintf("graph: invalid neighborhood: %v", err))
	}
	return sub, ball
}

// String renders the graph compactly, e.g. "G{n=3; 0-1 1-2; labels=[1 0 1]}".
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "G{n=%d;", g.N())
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, " %d-%d", e.U, e.V)
	}
	fmt.Fprintf(&b, "; labels=%v}", g.labels)
	return b.String()
}

// Equal reports whether g and h are identical (same node indexing,
// edges, and labels) — not isomorphism.
func (g *Graph) Equal(h *Graph) bool {
	if g.N() != h.N() {
		return false
	}
	for u := range g.adj {
		if g.labels[u] != h.labels[u] || len(g.adj[u]) != len(h.adj[u]) {
			return false
		}
		for i := range g.adj[u] {
			if g.adj[u][i] != h.adj[u][i] {
				return false
			}
		}
	}
	return true
}
