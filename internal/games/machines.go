package games

import (
	"strings"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/simulate"
)

// Machine-layer realization of the spanning-forest games as Σ^lp_3
// arbiters in the LOCAL model.
//
// Certificate encoding (three assignments κ1, κ2, κ3):
//
//	κ1(u): Eve's parent pointer — "0" marks u a root, "1"+id(parent)
//	       points to a neighbor (bounded: one bit + a local identifier).
//	κ2(u): Adam's challenge bit — "1" iff u ∈ X (anything else: u ∉ X).
//	κ3(u): Eve's response — two bits "YZ": the charge Y(u) and the shared
//	       uniqueness bit Z(u) (Z unused by the plain PointsTo arbiter).

// LocalTarget is a target condition evaluated from a node's local input,
// as the arbiter machine must do (e.g. label ≠ "1").
type LocalTarget func(in simulate.Input) bool

// UnselectedTarget is IsUnselected at machine level.
func UnselectedTarget(in simulate.Input) bool { return in.Label != "1" }

// SelectedTarget is IsSelected at machine level.
func SelectedTarget(in simulate.Input) bool { return in.Label == "1" }

type ptState struct {
	in       simulate.Input
	isRoot   bool
	parentID string
	x        bool
	y        bool
	z        bool
	ok       bool
	// learned in round 2
	parentSeen  bool
	parentY     bool
	unique      bool // running verdict for the uniqueness checks
	targetHolds bool
	// blame is the first port whose message alone failed a check (−1:
	// none); see simulate.Machine.Blame.
	blame int
}

func parsePTState(in simulate.Input, target LocalTarget) *ptState {
	s := &ptState{in: in, ok: true, unique: true, blame: -1}
	s.targetHolds = target(in)
	k1, k2, k3 := "", "", ""
	if len(in.Certs) > 0 {
		k1 = in.Certs[0]
	}
	if len(in.Certs) > 1 {
		k2 = in.Certs[1]
	}
	if len(in.Certs) > 2 {
		k3 = in.Certs[2]
	}
	switch {
	case k1 == "0":
		s.isRoot = true
	case strings.HasPrefix(k1, "1"):
		s.parentID = k1[1:]
	default:
		s.ok = false // malformed Eve move: she loses locally
	}
	s.x = k2 == "1"
	if len(k3) == 2 {
		s.y = k3[0] == '1'
		s.z = k3[1] == '1'
	}
	return s
}

// round1Msg carries id, Y, Z, X and the parent claim to every neighbor.
func (s *ptState) round1Msg() string {
	parts := []string{s.in.ID, bit(s.y), bit(s.z), bit(s.x), bit(s.isRoot), s.parentID}
	return strings.Join(parts, ",")
}

// fail records a failed check. port ≥ 0 names the port whose message,
// with the node's own state, failed it whatever the other ports send;
// the node blames the first such port.
func (s *ptState) fail(port int) {
	s.ok = false
	if s.blame < 0 {
		s.blame = port
	}
}

// blamePort returns the port the node blames (−1: none).
func (s *ptState) blamePort() int { return s.blame }

// ptBlame is the Blame of every machine whose state embeds a ptState.
func ptBlame(st any) int { return st.(interface{ blamePort() int }).blamePort() }

// parseAll parses every round-1 message of recv into neighbors. A
// malformed message fails the node, blaming its port; neighbors[j] is
// then port j's sender only up to that port, which no later blame
// needs, since the first blame stands.
func (s *ptState) parseAll(recv []string) []neighborInfo {
	var neighbors []neighborInfo
	for j, m := range recv {
		nb, ok := parseNeighbor(m)
		if !ok {
			s.fail(j)
			continue
		}
		neighbors = append(neighbors, nb)
	}
	return neighbors
}

func bit(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

type neighborInfo struct {
	id       string
	y, z, x  bool
	isRoot   bool
	parentID string
}

func parseNeighbor(msg string) (neighborInfo, bool) {
	parts := strings.SplitN(msg, ",", 6)
	if len(parts) != 6 {
		return neighborInfo{}, false
	}
	return neighborInfo{
		id:       parts[0],
		y:        parts[1] == "1",
		z:        parts[2] == "1",
		x:        parts[3] == "1",
		isRoot:   parts[4] == "1",
		parentID: parts[5],
	}, true
}

// checkPointsTo performs the round-2 local checks of the PointsTo
// schema. It runs only when every message parsed, so neighbors[j] is
// port j's sender. A failed ChildCase blames the parent: whatever the
// other ports send, a second neighbour with the parent's identifier
// fails UniqueParent instead. A failed Z agreement blames the
// disagreeing port: the check runs only while every other check holds.
func (s *ptState) checkPointsTo(neighbors []neighborInfo, unique bool) {
	if !s.ok {
		return
	}
	if s.isRoot {
		// RootCase[ϑ]: the root must satisfy the target and be positive.
		if !s.targetHolds || !s.y {
			s.fail(-1)
		}
	} else {
		// UniqueParent: the claimed parent must be exactly one neighbor.
		found, parent := 0, -1
		for j, nb := range neighbors {
			if nb.id == s.parentID {
				found++
				s.parentY, parent = nb.y, j
			}
		}
		if found != 1 {
			s.fail(-1)
		} else {
			// ChildCase: Y(u) = Y(parent) XOR X(u).
			if s.y != (s.parentY != s.x) {
				s.fail(parent)
			}
		}
	}
	if unique && s.ok {
		// BelievesInOne[ϑ]: all nodes agree on Z; target nodes tie Z to
		// their own challenge membership.
		for j, nb := range neighbors {
			if nb.z != s.z {
				s.fail(j)
			}
		}
		if s.targetHolds && s.z != s.x {
			s.fail(-1)
		}
	}
}

// newPointsToMachine builds the 2-round arbiter shared by the PointsTo and
// PointsToUnique games.
func newPointsToMachine(name string, target LocalTarget, unique bool) *simulate.Machine {
	return &simulate.Machine{
		Name: name,
		Init: func(in simulate.Input) any { return parsePTState(in, target) },
		Round: func(sv any, round int, recv []string) ([]string, bool) {
			s := sv.(*ptState)
			if round == 1 {
				return simulate.Broadcast(recv, s.round1Msg()), !s.ok
			}
			s.checkPointsTo(s.parseAll(recv), unique)
			return nil, true
		},
		Output: func(sv any) string { return bit(sv.(*ptState).ok) },
		Blame:  ptBlame,
	}
}

// PointsToArbiter returns the Σ^lp_3 arbiter for the property
// "some node satisfies the target" (Example 6): Eve plays a spanning
// forest rooted at target nodes (κ1), Adam challenges with a set X (κ2),
// Eve responds with charges (κ3).
func PointsToArbiter(name string, target LocalTarget) *core.Arbiter {
	return &core.Arbiter{
		Machine:  newPointsToMachine(name, target, false),
		Level:    core.Sigma(3),
		RadiusID: 1,
		Bound:    cert.Bound{R: 1, P: cert.Polynomial{2, 1}},
	}
}

// PointsToUniqueArbiter returns the Σ^lp_3 arbiter for "exactly one node
// satisfies the target" (Example 8).
func PointsToUniqueArbiter(name string, target LocalTarget) *core.Arbiter {
	return &core.Arbiter{
		Machine:  newPointsToMachine(name, target, true),
		Level:    core.Sigma(3),
		RadiusID: 1,
		Bound:    cert.Bound{R: 1, P: cert.Polynomial{2, 1}},
	}
}

// NotAllSelectedArbiter is the Σ^lp_3 arbiter for not-all-selected.
func NotAllSelectedArbiter() *core.Arbiter {
	return PointsToArbiter("sigma3:not-all-selected", UnselectedTarget)
}

// OneSelectedArbiter is the Σ^lp_3 arbiter for one-selected.
func OneSelectedArbiter() *core.Arbiter {
	return PointsToUniqueArbiter("sigma3:one-selected", SelectedTarget)
}

// --- Eve's machine-level strategies -----------------------------------

// encodeParents converts a parent assignment into Eve's κ1 certificates.
func encodeParents(p Parents, id graph.IDAssignment) cert.Assignment {
	out := make(cert.Assignment, len(p))
	for u, v := range p {
		if u == v {
			out[u] = "0"
		} else {
			out[u] = "1" + id[v]
		}
	}
	return out
}

// decodeParents reconstructs the parent assignment from κ1 certificates
// (used by Eve's third-move strategy, which — being a strategy, not a
// distributed machine — may compute globally).
func decodeParents(g *graph.Graph, id graph.IDAssignment, k1 cert.Assignment) (Parents, bool) {
	p := make(Parents, g.N())
	for u := 0; u < g.N(); u++ {
		switch {
		case k1[u] == "0":
			p[u] = u
		case strings.HasPrefix(k1[u], "1"):
			pid := k1[u][1:]
			p[u] = -1
			for _, v := range g.Neighbors(u) {
				if id[v] == pid {
					p[u] = v
					break
				}
			}
			if p[u] < 0 {
				return nil, false
			}
		default:
			return nil, false
		}
	}
	return p, true
}

// decodeChallenge converts Adam's κ2 certificates into a challenge set.
func decodeChallenge(k2 cert.Assignment) Challenge {
	x := make(Challenge, len(k2))
	for u, s := range k2 {
		x[u] = s == "1"
	}
	return x
}

// ForestStrategy returns Eve's first-move strategy for PointsTo[target]:
// a BFS spanning forest toward target nodes. When no target node exists
// she has no winning move and plays all-roots (losing, as required).
func ForestStrategy(target Target) core.Strategy {
	return func(g *graph.Graph, id graph.IDAssignment, _ []cert.Assignment) (cert.Assignment, error) {
		p, ok := BFSForestTo(g, target)
		if !ok {
			p = make(Parents, g.N())
			for u := range p {
				p[u] = u
			}
		}
		return encodeParents(p, id), nil
	}
}

// HamiltonianStrategy returns Eve's first-move strategy for the
// Hamiltonian game: parent pointers along a Hamiltonian cycle.
func HamiltonianStrategy() core.Strategy {
	return func(g *graph.Graph, id graph.IDAssignment, _ []cert.Assignment) (cert.Assignment, error) {
		p, ok := HamiltonianPathParents(g)
		if !ok {
			p = make(Parents, g.N())
			for u := range p {
				p[u] = u
			}
		}
		return encodeParents(p, id), nil
	}
}

// ChargeStrategy returns Eve's third-move strategy: given her own κ1 and
// Adam's κ2 (moves[0] and moves[1]), solve for charges Y and the
// uniqueness bit Z. The target is needed to compute Z; pass nil for the
// plain PointsTo game (Z stays 0).
func ChargeStrategy(target Target) core.Strategy {
	return func(g *graph.Graph, id graph.IDAssignment, moves []cert.Assignment) (cert.Assignment, error) {
		out := make(cert.Assignment, g.N())
		for u := range out {
			out[u] = "00"
		}
		if len(moves) < 2 {
			return out, nil
		}
		p, ok := decodeParents(g, id, moves[0])
		if !ok {
			return out, nil
		}
		x := decodeChallenge(moves[1])
		y, ok := SolveCharges(p, x)
		if !ok {
			return out, nil // no consistent response exists
		}
		z := false
		if target != nil {
			var zok bool
			z, zok = SolveUniqueness(g, target, x)
			if !zok {
				z = false // inconsistent; Eve loses either way
			}
		}
		for u := range out {
			out[u] = bit(y[u]) + bit(z)
		}
		return out, nil
	}
}

// RootChargeStrategy is ChargeStrategy for games whose target is "is a
// root of Eve's own forest" (the Hamiltonian game): the target depends on
// Eve's first move, so it is resolved from moves[0].
func RootChargeStrategy() core.Strategy {
	return func(g *graph.Graph, id graph.IDAssignment, moves []cert.Assignment) (cert.Assignment, error) {
		out := make(cert.Assignment, g.N())
		for u := range out {
			out[u] = "00"
		}
		if len(moves) < 2 {
			return out, nil
		}
		p, ok := decodeParents(g, id, moves[0])
		if !ok {
			return out, nil
		}
		x := decodeChallenge(moves[1])
		y, ok := SolveCharges(p, x)
		if !ok {
			return out, nil
		}
		rootTarget := func(_ *graph.Graph, u int) bool { return p[u] == u }
		z, zok := SolveUniqueness(g, rootTarget, x)
		if !zok {
			z = false
		}
		for u := range out {
			out[u] = bit(y[u]) + bit(z)
		}
		return out, nil
	}
}

// --- Hamiltonian arbiter (3 rounds) ------------------------------------

type hamState struct {
	*ptState
	childCount int
	isLeaf     bool
	rootOK     bool
	neighbors  []neighborInfo
}

// HamiltonianArbiter returns the Σ^lp_3 arbiter of Example 9: the
// PointsToUnique[Root] checks plus MaxOneChild and SeesLeafIfRoot. It runs
// in three rounds (the third lets leaves announce themselves to the root).
func HamiltonianArbiter() *core.Arbiter {
	m := &simulate.Machine{
		Name: "sigma3:hamiltonian",
		Init: func(in simulate.Input) any {
			s := parsePTState(in, func(simulate.Input) bool { return false })
			// The target of the uniqueness game is "is a root", known
			// from the node's own κ1.
			s.targetHolds = s.isRoot
			return &hamState{ptState: s, rootOK: true}
		},
		Round: func(sv any, round int, recv []string) ([]string, bool) {
			h := sv.(*hamState)
			s := h.ptState
			switch round {
			case 1:
				return simulate.Broadcast(recv, s.round1Msg()), false
			case 2:
				h.neighbors = s.parseAll(recv)
				for _, nb := range h.neighbors {
					if nb.parentID == s.in.ID && !nb.isRoot {
						h.childCount++
					}
				}
				s.checkPointsTo(h.neighbors, true)
				// MaxOneChild.
				if h.childCount > 1 {
					s.fail(-1)
				}
				h.isLeaf = h.childCount == 0
				// Announce leaf status (and echo the parent claim so the
				// root can verify the leaf is not its own child).
				return simulate.Broadcast(recv, bit(h.isLeaf)+","+s.parentID), !s.ok
			default:
				// SeesLeafIfRoot: the root needs an adjacent leaf that is
				// not its own child.
				if s.isRoot && s.ok {
					seen := false
					for _, m := range recv {
						parts := strings.SplitN(m, ",", 2)
						if len(parts) != 2 {
							continue
						}
						if parts[0] == "1" && parts[1] != s.in.ID {
							seen = true
						}
					}
					if !seen {
						s.fail(-1)
					}
				}
				return nil, true
			}
		},
		Output: func(sv any) string { return bit(sv.(*hamState).ok) },
		Blame:  ptBlame,
	}
	return &core.Arbiter{
		Machine:  m,
		Level:    core.Sigma(3),
		RadiusID: 1,
		Bound:    cert.Bound{R: 1, P: cert.Polynomial{2, 1}},
	}
}
