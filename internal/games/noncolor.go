package games

import (
	"strings"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/simulate"
)

// This file implements the non-2-colorable game from the end of Section
// 5.2: a graph is non-2-colorable iff it contains an odd cycle, and Eve
// proves the existence of one by retracing it with an oriented relation R,
// anchoring a spanning tree at a node of that cycle, and propagating a
// modulo-two parity around it. The root checks it has the *same* parity as
// its R-predecessor — around a cycle of alternating parities this is
// possible exactly when the cycle is odd. The spanning tree (validated by
// the PointsToUnique machinery, with Adam's challenges as κ2/κ3)
// guarantees the root is unique, so exactly one cycle is forced odd.
//
// Certificate layout: κ1(u) = <parent>|<onCycle>|<predID>|<parity> where
// <parent> is the PointsTo pointer ("0" root / "1"+id), onCycle and parity
// are bits, and predID is the identifier of u's R-predecessor (empty when
// off-cycle).

type oddCycleState struct {
	*ptState
	onCycle bool
	predID  string
	parity  bool
}

func parseOddCycleState(in simulate.Input) *oddCycleState {
	// Split κ1 into the PointsTo pointer and the cycle fields.
	base := in
	s := &oddCycleState{}
	var fields []string
	if len(in.Certs) > 0 {
		fields = strings.Split(in.Certs[0], "|")
	}
	if len(fields) == 4 {
		base.Certs = append([]string{fields[0]}, in.Certs[1:]...)
	} else {
		base.Certs = append([]string{""}, in.Certs[1:]...) // malformed
	}
	s.ptState = parsePTState(base, func(simulate.Input) bool { return false })
	if len(fields) != 4 {
		s.ok = false
		return s
	}
	s.onCycle = fields[1] == "1"
	s.predID = fields[2]
	s.parity = fields[3] == "1"
	s.targetHolds = s.isRoot
	return s
}

// oddCycleMsg extends the PointsTo round-1 message with the cycle fields.
func (s *oddCycleState) oddCycleMsg() string {
	return s.round1Msg() + ";" + bit(s.onCycle) + ";" + s.predID + ";" + bit(s.parity)
}

type oddCycleNeighbor struct {
	neighborInfo
	onCycle bool
	predID  string
	parity  bool
}

func parseOddCycleNeighbor(m string) (oddCycleNeighbor, bool) {
	parts := strings.Split(m, ";")
	if len(parts) != 4 {
		return oddCycleNeighbor{}, false
	}
	nb, ok := parseNeighbor(parts[0])
	if !ok {
		return oddCycleNeighbor{}, false
	}
	return oddCycleNeighbor{
		neighborInfo: nb,
		onCycle:      parts[1] == "1",
		predID:       parts[2],
		parity:       parts[3] == "1",
	}, true
}

// NonTwoColorableArbiter returns the Σ^lp_3 arbiter for
// non-2-colorability.
func NonTwoColorableArbiter() *core.Arbiter {
	m := &simulate.Machine{
		Name: "sigma3:non-2-colorable",
		Init: func(in simulate.Input) any { return parseOddCycleState(in) },
		Round: func(sv any, round int, recv []string) ([]string, bool) {
			s := sv.(*oddCycleState)
			if round == 1 {
				return simulate.Broadcast(recv, s.oddCycleMsg()), !s.ok
			}
			var neighbors []neighborInfo
			var cyc []oddCycleNeighbor
			for j, m := range recv {
				nb, ok := parseOddCycleNeighbor(m)
				if !ok {
					s.fail(j)
					continue
				}
				neighbors = append(neighbors, nb.neighborInfo)
				cyc = append(cyc, nb)
			}
			// Spanning-tree checks with uniqueness (root anchored).
			s.checkPointsTo(neighbors, true)
			// The root must lie on Eve's cycle.
			if s.isRoot && !s.onCycle {
				s.fail(-1)
			}
			if s.onCycle && s.ok {
				// Exactly one on-cycle neighbor is my predecessor, and it
				// must carry the right parity: equal for the root,
				// opposite for everyone else. A wrong parity blames its
				// port: a second predecessor would fail the count.
				pred := 0
				succ := 0
				for j, nb := range cyc {
					if nb.onCycle && nb.id == s.predID {
						pred++
						if s.isRoot {
							if nb.parity != s.parity {
								s.fail(j)
							}
						} else if nb.parity == s.parity {
							s.fail(j)
						}
					}
					// Successor: a neighbor naming me as its predecessor.
					if nb.onCycle && nb.predID == s.in.ID {
						succ++
					}
				}
				if pred != 1 || succ != 1 {
					s.fail(-1)
				}
			}
			return nil, true
		},
		Output: func(sv any) string { return bit(sv.(*oddCycleState).ok) },
		Blame:  ptBlame,
	}
	return &core.Arbiter{
		Machine:  m,
		Level:    core.Sigma(3),
		RadiusID: 1,
		Bound:    cert.Bound{R: 1, P: cert.Polynomial{4, 1}},
	}
}

// OddCycle finds an odd cycle in g, returned as a node sequence
// (c[0], c[1], …, c[k-1], back to c[0]) of odd length, or ok=false when g
// is bipartite. It uses the BFS parity argument: an edge between
// same-parity nodes closes an odd cycle through their BFS paths.
func OddCycle(g *graph.Graph) ([]int, bool) {
	n := g.N()
	parent := make([]int, n)
	depth := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	parent[0] = 0
	queue := []int{0}
	order := []int{0}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if parent[v] < 0 {
				parent[v] = u
				depth[v] = depth[u] + 1
				queue = append(queue, v)
				order = append(order, v)
			}
		}
	}
	for _, e := range g.Edges() {
		if depth[e.U]%2 != depth[e.V]%2 {
			continue
		}
		// Odd cycle: paths from e.U and e.V up to their LCA, plus {U,V}.
		a, b := e.U, e.V
		var pa, pb []int
		for a != b {
			if depth[a] >= depth[b] {
				pa = append(pa, a)
				a = parent[a]
			} else {
				pb = append(pb, b)
				b = parent[b]
			}
		}
		cycle := make([]int, 0, len(pa)+len(pb)+1)
		cycle = append(cycle, pa...)
		cycle = append(cycle, a) // the LCA
		for i := len(pb) - 1; i >= 0; i-- {
			cycle = append(cycle, pb[i])
		}
		return cycle, true
	}
	return nil, false
}

// NonTwoColorableStrategy returns Eve's first move: retrace an odd cycle
// with alternating parities, rooted at its first node, with a BFS
// spanning tree anchored there. On bipartite graphs she has no winning
// move and plays an empty claim.
func NonTwoColorableStrategy() core.Strategy {
	return func(g *graph.Graph, id graph.IDAssignment, _ []cert.Assignment) (cert.Assignment, error) {
		n := g.N()
		out := make(cert.Assignment, n)
		cycle, ok := OddCycle(g)
		if !ok {
			for u := range out {
				out[u] = "0|0||0" // all roots, no cycle: loses, as it must
			}
			return out, nil
		}
		root := cycle[0]
		p, _ := BFSForestTo(g, func(_ *graph.Graph, u int) bool { return u == root })
		parents := encodeParents(p, id)
		onCycle := make([]bool, n)
		pred := make([]string, n)
		parity := make([]bool, n)
		for i, u := range cycle {
			onCycle[u] = true
			prev := cycle[(i-1+len(cycle))%len(cycle)]
			pred[u] = id[prev]
			parity[u] = i%2 == 1 // alternates; cycle[0] gets false and its
			// predecessor cycle[k-1] has parity (k-1)%2 = 0 for odd k:
			// equal parities at the root, as required.
		}
		for u := 0; u < n; u++ {
			out[u] = parents[u] + "|" + bit(onCycle[u]) + "|" + pred[u] + "|" + bit(parity[u])
		}
		return out, nil
	}
}

// nonTwoColorChargeStrategy strips the cycle fields before delegating to
// the root-targeted charge solver.
func NonTwoColorChargeStrategy() core.Strategy {
	inner := RootChargeStrategy()
	return func(g *graph.Graph, id graph.IDAssignment, moves []cert.Assignment) (cert.Assignment, error) {
		if len(moves) >= 1 {
			stripped := make(cert.Assignment, len(moves[0]))
			for u, c := range moves[0] {
				if i := strings.IndexByte(c, '|'); i >= 0 {
					c = c[:i]
				}
				stripped[u] = c
			}
			moves = append([]cert.Assignment{stripped}, moves[1:]...)
		}
		return inner(g, id, moves)
	}
}
