package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/simulate"
)

// oneBitRestrictor accepts at a node iff its move-th certificate is a
// single bit. It is locally repairable: a violating certificate can be
// replaced by "0" without affecting other nodes.
func oneBitRestrictor(move int) Restrictor {
	type st struct{ ok bool }
	return Restrictor{
		Move: move,
		Machine: &simulate.Machine{
			Name: "restrict:one-bit",
			Init: func(in simulate.Input) any {
				ok := len(in.Certs) >= move && len(in.Certs[move-1]) == 1
				return &st{ok: ok}
			},
			Round:  func(any, int, []string) ([]string, bool) { return nil, true },
			Output: func(s any) string { return map[bool]string{true: "1", false: "0"}[s.(*st).ok] },
		},
	}
}

// matchMachine accepts at a node iff κ1(u) equals the node's label,
// assuming the restrictor guarantees κ1 is one bit.
func matchMachine() *simulate.Machine {
	type st struct{ ok bool }
	return &simulate.Machine{
		Name: "main:match",
		Init: func(in simulate.Input) any {
			ok := len(in.Certs) >= 1 && in.Certs[0] == in.Label
			return &st{ok: ok}
		},
		Round:  func(any, int, []string) ([]string, bool) { return nil, true },
		Output: func(s any) string { return map[bool]string{true: "1", false: "0"}[s.(*st).ok] },
	}
}

// TestRelativizeExistentialViolation: a violating Eve certificate makes
// the relativized machine reject (verdict 0 at the aware nodes), so the
// Σ^lp_1 game over unrestricted certificates equals the restricted game.
func TestRelativizeExistentialViolation(t *testing.T) {
	t.Parallel()
	g := graph.Path(2).MustWithLabels([]string{"0", "1"})
	id := graph.GloballyUnique(g)
	mc := Relativize(matchMachine(), Sigma(1), []Restrictor{oneBitRestrictor(1)}, 1)

	// Valid certificates: main verdict decides.
	res, err := simulate.Run(mc, g, id, cert.NodeLists(cert.Assignment{"0", "1"}), simulate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted() {
		t.Fatal("valid matching certificates should be accepted")
	}
	res, err = simulate.Run(mc, g, id, cert.NodeLists(cert.Assignment{"1", "1"}), simulate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted() {
		t.Fatal("valid but mismatching certificates should be rejected")
	}
	// Invalid certificate (too long) on an otherwise-accepting play:
	// the violation is Eve's, so the machine must reject.
	res, err = simulate.Run(mc, g, id, cert.NodeLists(cert.Assignment{"00", "1"}), simulate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted() {
		t.Fatal("Eve's invalid certificate must be rejected")
	}
}

// TestRelativizeUniversalViolation: at level Π^lp_1 the certificate is
// Adam's; his invalid certificates must be *accepted* so that they cannot
// help him win the universal quantification.
func TestRelativizeUniversalViolation(t *testing.T) {
	t.Parallel()
	g := graph.Path(2).MustWithLabels([]string{"0", "1"})
	id := graph.GloballyUnique(g)
	mc := Relativize(matchMachine(), Pi(1), []Restrictor{oneBitRestrictor(1)}, 1)

	res, err := simulate.Run(mc, g, id, cert.NodeLists(cert.Assignment{"00", "1"}), simulate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted() {
		t.Fatal("Adam's invalid certificate must be neutralized by acceptance")
	}
}

// TestRelativizedGameEqualsRestrictedGame: quantifying the relativized
// machine over a loose domain gives the same game value as quantifying
// the raw machine over the restricted domain — the statement of Lemma 11
// at our instance sizes.
func TestRelativizedGameEqualsRestrictedGame(t *testing.T) {
	t.Parallel()
	for mask := uint(0); mask < 4; mask++ {
		g := graph.Path(2).MustWithLabels(graph.BitLabels(2, mask))
		id := graph.GloballyUnique(g)
		loose := []cert.Domain{cert.UniformDomain(2, 2)}  // includes invalid lengths
		strict := []cert.Domain{cert.UniformDomain(2, 1)} // still includes "", rejected by main

		mc := Relativize(matchMachine(), Sigma(1), []Restrictor{oneBitRestrictor(1)}, 1)
		arbLoose := &Arbiter{Machine: mc, Level: Sigma(1), RadiusID: 1, Bound: cert.Bound{R: 1, P: cert.Polynomial{8}}}
		got, err := gameValue(arbLoose, g, id, loose, Engine{})
		if err != nil {
			t.Fatal(err)
		}
		arbStrict := &Arbiter{Machine: matchMachine(), Level: Sigma(1), RadiusID: 1, Bound: cert.Bound{R: 1, P: cert.Polynomial{8}}}
		want, err := gameValue(arbStrict, g, id, strict, Engine{})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("mask %b: relativized game = %v, restricted game = %v", mask, got, want)
		}
	}

	// Generated instances: labelled paths and cycles up to 7 nodes, at
	// Σ1 and Π1, with one and two flag propagation rounds. The main
	// machines exchange "label:cert" messages, so both the component
	// parts and the flag part of every tuple decide verdicts; the
	// restricted game runs the raw machine alone and is the ground
	// truth, independent of the tuple codec.
	rng := rand.New(rand.NewSource(11))
	var graphs []*graph.Graph
	for n := 2; n <= 7; n++ {
		graphs = append(graphs, graph.Path(n))
		if n >= 3 {
			graphs = append(graphs, graph.Cycle(n))
		}
	}
	seen := map[Level]map[bool]bool{Sigma(1): {}, Pi(1): {}}
	for _, base := range graphs {
		n := base.N()
		for sample := 0; sample < 2; sample++ {
			g := base.MustWithLabels(graph.BitLabels(n, uint(rng.Intn(1<<n))))
			id := graph.GloballyUnique(g)
			// The loose domain gives one node two-bit certificates, which
			// the restrictor rejects; the strict domain is exactly the
			// certificates it accepts.
			loose := cert.UniformDomain(n, 1)
			loose.MaxLen[rng.Intn(n)] = 2
			strict := cert.UniformDomain(n, 1)
			for _, level := range []Level{Sigma(1), Pi(1)} {
				main := twoColoring()
				if !level.FirstExistential {
					main = noEqualOnes()
				}
				raw := &Arbiter{Machine: main, Level: level, RadiusID: 1}
				want, err := gameValue(raw, g, id, []cert.Domain{strict}, Engine{})
				if err != nil {
					t.Fatal(err)
				}
				seen[level][want] = true
				for extra := 1; extra <= 2; extra++ {
					mc := Relativize(main, level, []Restrictor{atMostOneBit(1)}, extra)
					rel := &Arbiter{Machine: mc, Level: level, RadiusID: 1}
					got, err := gameValue(rel, g, id, []cert.Domain{loose}, Engine{})
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%v on %d-node %v (labels %v, loose %v, extraRounds %d): relativized game = %v, restricted game = %v",
							level, n, g.Edges(), g.Labels(), loose.MaxLen, extra, got, want)
					}
				}
			}
		}
	}
	for level, vals := range seen {
		if !vals[true] || !vals[false] {
			t.Errorf("%v: generated games only took the values %v; the check needs both", level, vals)
		}
	}
}

// TestRelativizeFlagPropagation: a violation at one node must reach its
// neighbors' verdicts within the propagation rounds.
func TestRelativizeFlagPropagation(t *testing.T) {
	t.Parallel()
	g := graph.Path(3).MustWithLabels([]string{"1", "1", "1"})
	id := graph.GloballyUnique(g)
	mc := Relativize(matchMachine(), Sigma(1), []Restrictor{oneBitRestrictor(1)}, 2)
	// Node 2 plays an invalid certificate; all nodes play matching bits
	// otherwise. With propagation, nodes 1 (and 0 after 2 rounds) learn
	// about the violation; the graph is rejected.
	res, err := simulate.Run(mc, g, id, cert.NodeLists(cert.Assignment{"1", "1", "11"}), simulate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted() {
		t.Fatal("violation must reject the graph")
	}
	// The violating node itself must reject (it is Eve's move).
	if res.Outputs[2] != "0" {
		t.Fatalf("node 2 verdict %q, want 0", res.Outputs[2])
	}
	// And its neighbor learned of it.
	if res.Outputs[1] != "0" {
		t.Fatalf("node 1 verdict %q, want 0 after propagation", res.Outputs[1])
	}
}

// atMostOneBit accepts at a node iff its move-th certificate has at most
// one bit, so the certificates it admits are exactly UniformDomain(n, 1).
// It is locally repairable: a violation can be replaced by "".
func atMostOneBit(move int) Restrictor {
	return Restrictor{
		Move: move,
		Machine: &simulate.Machine{
			Name:   "restrict:at-most-one-bit",
			Init:   func(in simulate.Input) any { return len(in.Certs[move-1]) <= 1 },
			Round:  func(any, int, []string) ([]string, bool) { return nil, true },
			Output: func(s any) string { return map[bool]string{true: "1", false: "0"}[s.(bool)] },
		},
	}
}

// neighbourhoodMachine is a two-round machine: in round 1 every node
// sends "label:cert" (its first certificate) to each neighbour, in
// round 2 it decides by accept over its own pair and its neighbours'.
func neighbourhoodMachine(name string, accept func(label, c string, nbLabels, nbCerts []string) bool) *simulate.Machine {
	type st struct {
		label, cert string
		deg         int
		ok          bool
	}
	return &simulate.Machine{
		Name: name,
		Init: func(in simulate.Input) any {
			return &st{label: in.Label, cert: in.Certs[0], deg: in.Degree}
		},
		Round: func(sv any, round int, recv []string) ([]string, bool) {
			s := sv.(*st)
			if round == 1 {
				out := make([]string, s.deg)
				for j := range out {
					out[j] = s.label + ":" + s.cert
				}
				return out, false
			}
			var labels, certs []string
			for _, m := range recv {
				l, c, _ := strings.Cut(m, ":")
				labels = append(labels, l)
				certs = append(certs, c)
			}
			s.ok = accept(s.label, s.cert, labels, certs)
			return nil, true
		},
		Output: func(sv any) string { return map[bool]string{true: "1", false: "0"}[sv.(*st).ok] },
	}
}

// twoColoring accepts at a node whose certificate is one bit, is "1" if
// the node is labelled "1", and differs from every neighbour's: the Σ1
// game holds iff the graph has a proper 2-colouring extending the
// labels.
func twoColoring() *simulate.Machine {
	return neighbourhoodMachine("main:two-coloring", func(label, c string, _, nbCerts []string) bool {
		if len(c) != 1 || (label == "1" && c != "1") {
			return false
		}
		for _, nc := range nbCerts {
			if nc == c {
				return false
			}
		}
		return true
	})
}

// noEqualOnes rejects at a node labelled "1" with a non-empty
// certificate equal to that of a neighbour also labelled "1": the Π1
// game holds iff no two "1"-labelled nodes are adjacent. It also
// rejects when any neighbour's certificate has two bits and starts with
// its own, which only a certificate the restrictor rejects can cause:
// the relativized game then depends on the violation's flag reaching
// this node.
func noEqualOnes() *simulate.Machine {
	return neighbourhoodMachine("main:no-equal-ones", func(label, c string, nbLabels, nbCerts []string) bool {
		if label != "1" || c == "" {
			return true
		}
		for j, nc := range nbCerts {
			if (nbLabels[j] == "1" && nc == c) || (len(nc) == 2 && nc[:1] == c) {
				return false
			}
		}
		return true
	})
}
