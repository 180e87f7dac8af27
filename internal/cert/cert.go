// Package cert implements the certificate assignments of Sections 3 and 4:
// the per-node bit strings chosen by the players Eve and Adam, the
// (r,p)-boundedness condition on their sizes, certificate lists, and finite
// enumeration of bounded certificate spaces for exhaustive game search on
// small graphs.
package cert

import (
	"fmt"
	"strings"

	"repro/internal/graph"
	"repro/internal/search"
)

// Assignment is a certificate assignment κ: one bit string per node.
type Assignment []string

// Polynomial is a univariate polynomial with nonnegative integer
// coefficients, p(n) = C[0] + C[1]·n + C[2]·n² + …
type Polynomial []int

// Eval evaluates the polynomial at n.
func (p Polynomial) Eval(n int) int {
	out := 0
	pow := 1
	for _, c := range p {
		out += c * pow
		pow *= n
	}
	return out
}

// String renders the polynomial, e.g. "2 + 3n + n^2".
func (p Polynomial) String() string {
	if len(p) == 0 {
		return "0"
	}
	var parts []string
	for i, c := range p {
		if c == 0 {
			continue
		}
		switch i {
		case 0:
			parts = append(parts, fmt.Sprintf("%d", c))
		case 1:
			parts = append(parts, fmt.Sprintf("%dn", c))
		default:
			if c == 1 {
				parts = append(parts, fmt.Sprintf("n^%d", i))
			} else {
				parts = append(parts, fmt.Sprintf("%dn^%d", c, i))
			}
		}
	}
	if len(parts) == 0 {
		return "0"
	}
	return strings.Join(parts, " + ")
}

// Bound is the (r,p) certificate-size bound of Section 3: the length of
// node u's certificate may not exceed p applied to the total size of u's
// r-neighborhood, Σ_{v ∈ N^G_r(u)} (1 + len(label(v)) + len(id(v))).
type Bound struct {
	R int
	P Polynomial
}

// NeighborhoodSize computes the argument of p for node u.
func (b Bound) NeighborhoodSize(g *graph.Graph, id graph.IDAssignment, u int) int {
	total := 0
	for _, v := range g.Ball(u, b.R) {
		total += 1 + len(g.Label(v)) + len(id[v])
	}
	return total
}

// MaxLen returns the maximum allowed certificate length of node u.
func (b Bound) MaxLen(g *graph.Graph, id graph.IDAssignment, u int) int {
	return b.P.Eval(b.NeighborhoodSize(g, id, u))
}

// Check reports whether κ is (r,p)-bounded on (g, id).
func (b Bound) Check(g *graph.Graph, id graph.IDAssignment, k Assignment) bool {
	if len(k) != g.N() {
		return false
	}
	for u := 0; u < g.N(); u++ {
		if !graph.IsBitString(k[u]) || len(k[u]) > b.MaxLen(g, id, u) {
			return false
		}
	}
	return true
}

// Empty returns the trivial assignment giving every node the empty string.
func Empty(n int) Assignment { return make(Assignment, n) }

// NodeLists converts a sequence of certificate assignments κ1, …, κℓ into
// per-node certificate lists: out[u] = [κ1(u), …, κℓ(u)], the form consumed
// by the execution engines (the TM model concatenates them with '#').
func NodeLists(assigns ...Assignment) [][]string {
	if len(assigns) == 0 {
		return nil
	}
	n := len(assigns[0])
	out := make([][]string, n)
	for u := 0; u < n; u++ {
		out[u] = make([]string, len(assigns))
		for i, a := range assigns {
			out[u][i] = a[u]
		}
	}
	return out
}

// Domain is a finite set of certificate assignments to quantify over, given
// as per-node maximal certificate lengths: node u ranges over all bit
// strings of length 0..MaxLen[u]. Exhaustive game search enumerates the
// full product space, so keep the lengths tiny.
type Domain struct {
	MaxLen []int
}

// UniformDomain gives every node the same maximal certificate length.
func UniformDomain(n, maxLen int) Domain {
	ml := make([]int, n)
	for i := range ml {
		ml[i] = maxLen
	}
	return Domain{MaxLen: ml}
}

// BoundedDomain derives a domain from an (r,p) bound on (g, id), capped at
// cap bits per node to keep enumeration feasible.
func BoundedDomain(g *graph.Graph, id graph.IDAssignment, b Bound, cap int) Domain {
	ml := make([]int, g.N())
	for u := range ml {
		ml[u] = b.MaxLen(g, id, u)
		if ml[u] > cap {
			ml[u] = cap
		}
	}
	return Domain{MaxLen: ml}
}

// Size returns the number of assignments in the domain (the product over
// nodes of the number of bit strings of length ≤ MaxLen[u], which is
// 2^(L+1) − 1).
func (d Domain) Size() int {
	total := 1
	for _, l := range d.MaxLen {
		total *= (1 << uint(l+1)) - 1
	}
	return total
}

// stringsUpTo lists all bit strings of length 0..maxLen in a fixed
// order: "", then each length in turn, in counting order. The list for
// maxLen is therefore a prefix of the list for any longer length.
func stringsUpTo(maxLen int) []string {
	out := []string{""}
	for l := 1; l <= maxLen; l++ {
		for x := 0; x < 1<<uint(l); x++ {
			s := make([]byte, l)
			for i := 0; i < l; i++ {
				if x&(1<<uint(l-1-i)) != 0 {
					s[i] = '1'
				} else {
					s[i] = '0'
				}
			}
			out = append(out, string(s))
		}
	}
	return out
}

// ForEach enumerates every assignment in the domain, invoking yield for
// each. Enumeration stops early if yield returns false; ForEach reports
// whether enumeration ran to completion.
//
// The assignment passed to yield is reused between calls; copy it if it
// must be retained.
func (d Domain) ForEach(yield func(Assignment) bool) bool {
	e := d.Enum()
	cur := make(Assignment, len(d.MaxLen))
	return search.ForEach(e.Space(), func(choices []int) bool {
		e.Decode(choices, cur)
		return yield(cur)
	})
}

// Enum is a Domain compiled for the search engine: the per-node option
// tables are materialized once, so enumeration and decoding share them
// across the exponentially many assignments of a game evaluation. An Enum
// is immutable after construction and safe for concurrent use.
type Enum struct {
	options [][]string
}

// Enum compiles the domain. The option list of a node is a prefix of
// one table built for the largest MaxLen, so compiling allocates the
// same number of times whatever the number of nodes.
func (d Domain) Enum() *Enum {
	e := &Enum{options: make([][]string, len(d.MaxLen))}
	top := 0
	for _, l := range d.MaxLen {
		top = max(top, l)
	}
	table := stringsUpTo(top)
	for u, l := range d.MaxLen {
		n := 1
		if l > 0 {
			n = 1<<uint(l+1) - 1
		}
		e.options[u] = table[:n:n]
	}
	return e
}

// Len returns the number of node positions.
func (e *Enum) Len() int { return len(e.options) }

// NumOptions returns the number of bit strings node u ranges over (the
// radix of position u in Space). The game engine's memo keys
// fingerprint domains through it, and its per-node walks size the
// positions of a level, taken in a node's ball order, with it.
func (e *Enum) NumOptions(u int) int { return len(e.options[u]) }

// Space exposes the compiled domain as a search.Space: one position per
// node, node u offering its bit strings of length 0..MaxLen[u] in
// stringsUpTo order (choice 0 is ""). Enumerating the space in
// lexicographic order and decoding each assignment visits exactly the
// assignments of Domain.ForEach in the same order, which the cert test
// suite pins.
func (e *Enum) Space() search.Space {
	return search.Space{
		Len:  len(e.options),
		Size: func(u int) int { return len(e.options[u]) },
	}
}

// Decode writes the assignment selected by choices into the reusable
// buffer into; len(choices) and len(into) must both equal Len. Every
// position is overwritten, so buffers pooled through search.Scratch can
// be reused without clearing.
func (e *Enum) Decode(choices []int, into Assignment) {
	for u, c := range choices {
		into[u] = e.options[u][c]
	}
}

// DecodeOrdered is Decode for a walk over the nodes in the given
// order: position p of the walk is node order[p], whose options
// choices[p] selects from. Every node of order is overwritten.
func (e *Enum) DecodeOrdered(choices []int, order []int32, into Assignment) {
	for p, c := range choices {
		u := order[p]
		into[u] = e.options[u][c]
	}
}

// Space is shorthand for Enum().Space(); callers that also decode should
// compile the Enum once instead.
func (d Domain) Space() search.Space { return d.Enum().Space() }
