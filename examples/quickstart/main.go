// Quickstart: build a labeled graph, inspect its structural
// representation, and play the Σ^lp_1 certificate game for 3-colorability
// — the distributed analogue of an NP verification (Example 5 of the
// paper). Both sides of the distributed Fagin theorem (Theorem 14) are
// exercised: the machine game and the Σ^lfo_1 sentence.
package main

import (
	"fmt"
	"log"

	"repro/internal/arbiters"
	"repro/internal/cert"
	"repro/internal/logic"
	"repro/internal/simulate"
	"repro/localph"
)

func main() {
	// A 5-cycle with single-bit labels.
	g, err := localph.NewGraph(5, []localph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 0},
	}, []string{"1", "0", "1", "0", "1"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("graph:", g)

	// The structural representation $G of Figure 5: one element per node
	// and per labeling bit.
	rep := localph.NewRep(g)
	fmt.Printf("structural representation: %d elements (5 nodes + 5 bits)\n", rep.Card())

	// A small 1-locally unique identifier assignment (Remark 3).
	id := localph.SmallLocallyUnique(g, 1)
	fmt.Println("identifiers:", id)

	// Decide the LP-property all-selected: a one-round unanimous machine.
	accepted, err := localph.Decide(arbiters.AllSelected(), g, id, simulate.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("all-selected (LP decider):", accepted)

	// Verify 3-colorability in NLP = Σ^lp_1: Eve supplies each node its
	// color as a certificate; the nodes exchange colors for one round and
	// check properness.
	arb := &localph.Arbiter{
		Machine:  arbiters.ThreeColorable(),
		Level:    localph.Sigma(1),
		RadiusID: 1,
		Bound:    localph.CertBound{R: 1, P: localph.Polynomial{0, 2}},
	}
	prep, err := localph.Prepare(g, id)
	if err != nil {
		log.Fatal(err)
	}
	ok, err := arb.StrategyGameValueEngine(prep,
		[]localph.Strategy{arbiters.ColoringStrategy(3)},
		[]cert.Domain{{}}, localph.Engine{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("3-colorable (NLP certificate game):", ok)

	// The same property through the logic side of the distributed Fagin
	// theorem: the Σ^lfo_1 sentence of Example 5.
	opts := logic.NodeRestricted(rep, logic.ColorNames(3)...)
	fval, err := localph.SatFormula(rep.Structure, logic.ThreeColorable(), opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("3-colorable (Σ^lfo_1 formula):", fval)
}
