package games

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arbiters"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sat"
	"repro/internal/simulate"
)

// haltNotBefore wraps m so that no node halts before round r: in an
// earlier round m's halt is ignored, counted in *early, and m's Round
// runs on. Wrapped, a catalog verifier has the timing it had before it
// halted the nodes whose own certificates already reject them.
func haltNotBefore(m *simulate.Machine, r int, early *int) *simulate.Machine {
	w := *m
	w.Round = func(st any, round int, recv []string) ([]string, bool) {
		out, halt := m.Round(st, round, recv)
		if halt && round < r {
			*early++
			return out, false
		}
		return out, halt
	}
	return &w
}

// garbage is the pool a certificate is redrawn from: malformed strings
// for every catalog format, and well-formed but wrong ones.
var garbage = []string{"", "0", "1", "10", "11", "111", "x", ":", ",", "|", ";", "0:1", "1|0|1|1", "A:1", "A:0;B:1", "A:2"}

// bits draws a random connected graph on n nodes with 0/1 labels.
func bits(rng *rand.Rand, n int) *graph.Graph {
	return graph.RandomConnected(n, 0.4, rng).MustWithLabels(graph.BitLabels(n, uint(rng.Intn(1<<n))))
}

// formulas are the node formulas of the generated Boolean graphs.
var formulas = []string{"A", "~A", "A|B", "A&~B", "~B|C", "A&B", "B|~C"}

// formulaLabel draws a node label of a Boolean graph: a formula, or
// now and then a label that is none.
func formulaLabel(rng *rand.Rand) string {
	if rng.Intn(8) == 0 {
		return "01" // not a formula
	}
	return sat.EncodeLabel(sat.MustParse(formulas[rng.Intn(len(formulas))]))
}

// boolean draws a random connected Boolean graph on n nodes, some of
// whose labels are no formula.
func boolean(rng *rand.Rand, n int) *graph.Graph {
	fs := make([]sat.Formula, n)
	for u := range fs {
		fs[u] = sat.MustParse(formulas[rng.Intn(len(formulas))])
	}
	bg, err := sat.NewBooleanGraph(graph.RandomConnected(n, 0.4, rng), fs)
	if err != nil {
		panic(err)
	}
	labels := make([]string, n)
	for u := range labels {
		labels[u] = bg.G.Label(u)
		if rng.Intn(8) == 0 {
			labels[u] = "01" // not a formula
		}
	}
	return bg.G.MustWithLabels(labels)
}

// playMoves returns the certificate lists of one play on (g, id): each
// move by its strategy, or Adam's random challenge bits where the
// strategy is nil, and then, in two plays of three, every certificate
// replaced by garbage with probability 1/5.
func playMoves(t *testing.T, rng *rand.Rand, g *graph.Graph, id graph.IDAssignment, m *simulate.Machine, strategies []core.Strategy) [][]string {
	n := g.N()
	var moves []cert.Assignment
	for _, s := range strategies {
		var k cert.Assignment
		if s == nil {
			k = cert.Assignment(graph.BitLabels(n, uint(rng.Intn(1<<n))))
		} else {
			var err error
			if k, err = s(g, id, moves); err != nil {
				t.Fatalf("%s: strategy: %v", m.Name, err)
			}
		}
		moves = append(moves, k)
	}
	if rng.Intn(3) > 0 {
		for _, k := range moves {
			for u := range k {
				if rng.Intn(5) == 0 {
					k[u] = garbage[rng.Intn(len(garbage))]
				}
			}
		}
	}
	return cert.NodeLists(moves...)
}

// TestEarlyHaltKeepsOutputs: a catalog verifier halts a node once its
// verdict is fixed and it has nothing left to send. On generated graphs
// under Eve's strategies, with certificates redrawn at random, every
// node's output and sent bytes equal those of the same machine halting
// every node in its last round, and no run takes more rounds. Only a
// run in which every node halts early ends before its last messages
// arrive, so received bytes are equal whenever the round counts are.
func TestEarlyHaltKeepsOutputs(t *testing.T) {
	t.Parallel()
	cases := []struct {
		m      *simulate.Machine
		rounds int // the round every node halted in before
		graph  func(*rand.Rand, int) *graph.Graph
		moves  []core.Strategy // nil: Adam's random challenge bits
	}{
		{arbiters.KColorable(3), 2, bits, []core.Strategy{arbiters.ColoringStrategy(3)}},
		{arbiters.SatGraph(), 2, boolean, []core.Strategy{arbiters.SatGraphStrategy()}},
		{NotAllSelectedArbiter().Machine, 2, bits, []core.Strategy{ForestStrategy(IsUnselected), nil, ChargeStrategy(nil)}},
		{OneSelectedArbiter().Machine, 2, bits, []core.Strategy{ForestStrategy(IsSelected), nil, ChargeStrategy(IsSelected)}},
		{NonTwoColorableArbiter().Machine, 2, bits, []core.Strategy{NonTwoColorableStrategy(), nil, NonTwoColorChargeStrategy()}},
		{AcyclicArbiter().Machine, 2, bits, []core.Strategy{AcyclicStrategy(), nil, RootChargeStrategy()}},
		{OddArbiter().Machine, 2, bits, []core.Strategy{OddStrategy(), nil, oddChargeStrategy()}},
		{HamiltonianArbiter().Machine, 3, bits, []core.Strategy{HamiltonianStrategy(), nil, RootChargeStrategy()}},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(25))
		var early, fewerRounds int
		for trial := 0; trial < 150; trial++ {
			n := 1 + rng.Intn(7)
			g := c.graph(rng, n)
			id := graph.SmallLocallyUnique(g, 1)
			certs := playMoves(t, rng, g, id, c.m, c.moves)
			prep, err := simulate.Prepare(g, id)
			if err != nil {
				t.Fatal(err)
			}
			got, err := prep.Run(c.m, certs, simulate.Options{})
			if err != nil {
				t.Fatalf("%s: %v", c.m.Name, err)
			}
			halted := 0
			want, err := prep.Run(haltNotBefore(c.m, c.rounds, &halted), certs, simulate.Options{})
			if err != nil {
				t.Fatalf("%s, halting late: %v", c.m.Name, err)
			}
			early += halted
			if !slices.Equal(got.Outputs, want.Outputs) || !slices.Equal(got.SentBits, want.SentBits) {
				t.Fatalf("%s on %v under %q: outputs %q and sent %v, halting late %q and %v",
					c.m.Name, g, certs, got.Outputs, got.SentBits, want.Outputs, want.SentBits)
			}
			switch {
			case got.Rounds > want.Rounds:
				t.Fatalf("%s on %v under %q: %d rounds, %d halting late", c.m.Name, g, certs, got.Rounds, want.Rounds)
			case got.Rounds == want.Rounds:
				if !slices.Equal(got.RecvBits, want.RecvBits) {
					t.Fatalf("%s on %v under %q: received %v, halting late %v", c.m.Name, g, certs, got.RecvBits, want.RecvBits)
				}
			default:
				fewerRounds++
				if halted != n {
					t.Fatalf("%s on %v under %q: %d rounds, %d halting late, but only %d of %d nodes halted early",
						c.m.Name, g, certs, got.Rounds, want.Rounds, halted, n)
				}
			}
		}
		if early == 0 || fewerRounds == 0 {
			t.Errorf("%s: %d nodes halted early, %d runs took fewer rounds; want some of both", c.m.Name, early, fewerRounds)
		}
	}
}
