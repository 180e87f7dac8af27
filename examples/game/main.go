// Game walk-through: plays the two Eve/Adam games of the paper's
// examples — the 3-round 3-colorability game of Example 1 (Figure 1) and
// the Σ^lp_3 spanning-forest game of Example 6 for not-all-selected, run
// against the actual LOCAL-model arbiter machine.
package main

import (
	"fmt"
	"log"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/games"
	"repro/internal/graph"
	"repro/internal/props"
	"repro/internal/search"
	"repro/internal/simulate"
)

func main() {
	// --- Example 1 / Figure 1: the 3-round 3-colorability game. ---
	no := graph.Figure1NoInstance()
	yes := graph.Figure1YesInstance()
	for _, tt := range []struct {
		name, winner string
		g            *graph.Graph
	}{{"Figure 1a", "Adam", no}, {"Figure 1b", "Eve", yes}} {
		won, err := props.ThreeRoundThreeColorable(tt.g, search.Default())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tt.name+": 3-colorable =", props.ThreeColorable(tt.g),
			"| 3-round 3-colorable =", won, "("+tt.winner+" wins)")
	}

	// --- Example 6: the Σ^lp_3 game for not-all-selected. ---
	// Eve claims some node is unselected by exhibiting a spanning forest
	// rooted at unselected nodes; Adam challenges with a set X; Eve
	// answers with charges Y. The arbiter machine checks everything with
	// two communication rounds.
	g := graph.Cycle(5).MustWithLabels([]string{"1", "1", "0", "1", "1"})
	id := graph.SmallLocallyUnique(g, 1)
	arb := games.NotAllSelectedArbiter()
	prep, err := simulate.Prepare(g, id)
	if err != nil {
		log.Fatal(err)
	}
	ok, err := arb.StrategyGameValueEngine(prep,
		[]core.Strategy{games.ForestStrategy(games.IsUnselected), nil, games.ChargeStrategy(nil)},
		[]cert.Domain{{}, cert.UniformDomain(g.N(), 1), {}}, core.Engine{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnot-all-selected on %v\n", g)
	fmt.Println("Σ^lp_3 game value (Eve wins):", ok, "| ground truth:", props.NotAllSelected(g))

	// On an all-selected cycle Eve has no winning first move: whatever
	// forest she claims, Adam finds the flaw.
	all := graph.Cycle(5).MustWithLabels(graph.AllSelectedLabels(5))
	prep, err = simulate.Prepare(all, id)
	if err != nil {
		log.Fatal(err)
	}
	ok, err = arb.StrategyGameValueEngine(prep,
		[]core.Strategy{games.ForestStrategy(games.IsUnselected), nil, games.ChargeStrategy(nil)},
		[]cert.Domain{{}, cert.UniformDomain(all.N(), 1), {}}, core.Engine{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnot-all-selected on %v\n", all)
	fmt.Println("Σ^lp_3 game value (Eve wins):", ok, "| ground truth:", props.NotAllSelected(all))

	// The semantic layer evaluates the full game tree (every forest Eve
	// could try, every challenge Adam could raise):
	fmt.Println("\nexhaustive game evaluation (Example 6 semantics):")
	fmt.Println("  cycle with one 0:", games.EveWinsPointsTo(g, games.IsUnselected, search.Default()))
	fmt.Println("  all-selected:    ", games.EveWinsPointsTo(all, games.IsUnselected, search.Default()))
}
