package games

import (
	"testing"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/props"
	"repro/internal/simulate"
)

// TestEveWinsAcyclicMatchesGroundTruth: the acyclic spanning-tree game of
// Section 5.2 captures exactly the trees.
func TestEveWinsAcyclicMatchesGroundTruth(t *testing.T) {
	t.Parallel()
	graphs := []*graph.Graph{
		graph.Single(""), graph.Path(2), graph.Path(4), graph.Star(4),
		graph.Cycle(3), graph.Cycle(4), graph.Complete(4), graph.Grid(2, 2),
	}
	for _, g := range graphs {
		want := props.Acyclic(g)
		if got := EveWinsAcyclic(g); got != want {
			t.Fatalf("%v: EveWinsAcyclic = %v, want %v", g, got, want)
		}
	}
}

// TestEveWinsOddMatchesGroundTruth: the modulo-two counter game captures
// exactly the odd-cardinality graphs.
func TestEveWinsOddMatchesGroundTruth(t *testing.T) {
	t.Parallel()
	graphs := []*graph.Graph{
		graph.Single(""), graph.Path(2), graph.Path(3), graph.Path(4),
		graph.Cycle(3), graph.Cycle(4), graph.Cycle(5), graph.Star(4), graph.Star(5),
	}
	for _, g := range graphs {
		want := props.Odd(g)
		if got := EveWinsOdd(g); got != want {
			t.Fatalf("%v: EveWinsOdd = %v, want %v", g, got, want)
		}
	}
}

func TestSubtreeParities(t *testing.T) {
	t.Parallel()
	// Path 0<-1<-2: subtree sizes 3,2,1 → parities 1,0,1.
	p := Parents{0, 0, 1}
	parity, ok := subtreeParities(p)
	if !ok {
		t.Fatal("tree rejected")
	}
	want := []int{1, 0, 1}
	for u := range want {
		if parity[u] != want[u] {
			t.Fatalf("parities = %v, want %v", parity, want)
		}
	}
	// Star rooted at center: subtree sizes 4,1,1,1.
	p = Parents{0, 0, 0, 0}
	parity, ok = subtreeParities(p)
	if !ok || parity[0] != 0 || parity[1] != 1 {
		t.Fatalf("star parities = %v ok=%v", parity, ok)
	}
	// Cycles have no consistent parities.
	if _, ok := subtreeParities(Parents{1, 2, 0}); ok {
		t.Fatal("cycle accepted")
	}
	// Two roots are rejected too.
	if _, ok := subtreeParities(Parents{0, 1}); ok {
		t.Fatal("forest with two roots accepted")
	}
}

func sigma3Verdict(t *testing.T, arb *core.Arbiter, g *graph.Graph, move1, move3 core.Strategy) bool {
	t.Helper()
	prep, err := simulate.Prepare(g, graph.SmallLocallyUnique(g, 1))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := arb.StrategyGameValueEngine(prep,
		[]core.Strategy{move1, nil, move3},
		[]cert.Domain{{}, cert.UniformDomain(g.N(), 1), {}}, core.Engine{})
	if err != nil {
		t.Fatalf("StrategyGameValueEngine: %v", err)
	}
	return ok
}

// oddChargeStrategy adapts RootChargeStrategy to κ1 values that carry the
// ":parity" suffix.
func oddChargeStrategy() core.Strategy {
	inner := RootChargeStrategy()
	return func(g *graph.Graph, id graph.IDAssignment, moves []cert.Assignment) (cert.Assignment, error) {
		if len(moves) >= 1 {
			stripped := make(cert.Assignment, len(moves[0]))
			for u, c := range moves[0] {
				for i := len(c) - 1; i >= 0; i-- {
					if c[i] == ':' {
						c = c[:i]
						break
					}
				}
				stripped[u] = c
			}
			moves = append([]cert.Assignment{stripped}, moves[1:]...)
		}
		return inner(g, id, moves)
	}
}

// TestAcyclicArbiter: the Σ^lp_3 machine decides tree-ness with Eve's
// strategy against all Adam challenges.
func TestAcyclicArbiter(t *testing.T) {
	t.Parallel()
	arb := AcyclicArbiter()
	graphs := []*graph.Graph{
		graph.Single(""), graph.Path(3), graph.Star(4),
		graph.Cycle(3), graph.Cycle(4), graph.Complete(4),
	}
	for _, g := range graphs {
		want := props.Acyclic(g)
		got := sigma3Verdict(t, arb, g, AcyclicStrategy(), RootChargeStrategy())
		if got != want {
			t.Fatalf("%v: acyclic arbiter = %v, want %v", g, got, want)
		}
	}
}

// TestOddArbiter: the Σ^lp_3 counter machine decides odd cardinality.
func TestOddArbiter(t *testing.T) {
	t.Parallel()
	arb := OddArbiter()
	graphs := []*graph.Graph{
		graph.Single(""), graph.Path(2), graph.Path(3), graph.Path(5),
		graph.Cycle(3), graph.Cycle(4), graph.Star(4), graph.Star(5),
	}
	for _, g := range graphs {
		want := props.Odd(g)
		got := sigma3Verdict(t, arb, g, OddStrategy(), oddChargeStrategy())
		if got != want {
			t.Fatalf("%v: odd arbiter = %v, want %v", g, got, want)
		}
	}
}

// TestOddArbiterRejectsForgedParity: Eve cannot fake oddness by lying
// about a subtree parity — the local aggregation check catches her.
func TestOddArbiterRejectsForgedParity(t *testing.T) {
	t.Parallel()
	g := graph.Path(2) // even: Eve should lose every play
	id := graph.SmallLocallyUnique(g, 1)
	forged := core.Strategy(func(g *graph.Graph, id graph.IDAssignment, _ []cert.Assignment) (cert.Assignment, error) {
		// Tree 1 -> 0, but both nodes claim parity 1.
		out := encodeParents(Parents{0, 0}, id)
		for u := range out {
			out[u] += ":1"
		}
		return out, nil
	})
	prep, err := simulate.Prepare(g, id)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := OddArbiter().StrategyGameValueEngine(prep,
		[]core.Strategy{forged, nil, oddChargeStrategy()},
		[]cert.Domain{{}, cert.UniformDomain(2, 1), {}}, core.Engine{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("forged parity accepted")
	}
}
