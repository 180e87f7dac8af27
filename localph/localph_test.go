package localph

import (
	"testing"

	"repro/internal/arbiters"
	"repro/internal/cert"
	"repro/internal/logic"
	"repro/internal/simulate"
)

// TestFacadeEndToEnd exercises the public API exactly as the quickstart
// example does.
func TestFacadeEndToEnd(t *testing.T) {
	t.Parallel()
	g, err := NewGraph(5, []Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 0},
	}, []string{"1", "1", "1", "1", "1"})
	if err != nil {
		t.Fatal(err)
	}
	id := SmallLocallyUnique(g, 1)
	ok, err := Decide(arbiters.AllSelected(), g, id, simulate.Options{})
	if err != nil || !ok {
		t.Fatalf("Decide = %v, %v", ok, err)
	}
	arb := &Arbiter{
		Machine:  arbiters.ThreeColorable(),
		Level:    Sigma(1),
		RadiusID: 1,
		Bound:    CertBound{R: 1, P: Polynomial{0, 2}},
	}
	prep, err := Prepare(g, id)
	if err != nil {
		t.Fatal(err)
	}
	ok, err = arb.StrategyGameValueEngine(prep,
		[]Strategy{arbiters.ColoringStrategy(3)}, []cert.Domain{{}}, Engine{})
	if err != nil || !ok {
		t.Fatalf("game = %v, %v", ok, err)
	}
	rep := NewRep(g)
	opts := logic.NodeRestricted(rep, logic.ColorNames(3)...)
	fval, err := SatFormula(rep.Structure, logic.ThreeColorable(), opts)
	if err != nil || !fval {
		t.Fatalf("formula = %v, %v", fval, err)
	}
}

func TestLevelNames(t *testing.T) {
	t.Parallel()
	if Sigma(1).String() != "Σ^lp_1" || Pi(2).String() != "Π^lp_2" {
		t.Fatal("level naming broken through the facade")
	}
}
