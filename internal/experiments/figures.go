package experiments

import (
	"fmt"

	"repro/internal/arbiters"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/dtm"
	"repro/internal/games"
	"repro/internal/graph"
	"repro/internal/pictures"
	"repro/internal/props"
	"repro/internal/reduce"
	"repro/internal/sat"
	"repro/internal/search"
	"repro/internal/simulate"
	"repro/internal/structure"
)

// Figure1 reproduces Example 1 / Figure 1: the left graph is 3-colorable
// but not 3-round 3-colorable (Adam wins), the right one is both (Eve
// wins). The minimax evaluations run on the engine o.
func Figure1(o search.Options) *Report {
	r := &Report{ID: "Figure 1", Title: "3-round 3-colorability game"}
	no := graph.Figure1NoInstance()
	yes := graph.Figure1YesInstance()
	for _, tt := range []struct {
		name string
		g    *graph.Graph
		want bool
	}{{"(a)", no, false}, {"(b)", yes, true}} {
		r.Rows = append(r.Rows, row(tt.name+" 3-colorable", true, props.ThreeColorable(tt.g)))
		won, err := props.ThreeRoundThreeColorable(tt.g, o)
		var measured any = won
		if err != nil {
			measured = err
		}
		r.Rows = append(r.Rows, row(tt.name+" 3-round 3-colorable", tt.want, measured))
	}
	return r
}

// Figure3Hamiltonian reproduces Figures 3/10 (Proposition 19): the
// all-selected → hamiltonian reduction on the figure's 4-node graph and on
// exhaustive labelings of small topologies, the labeling sweep sharded
// across the engine pool.
func Figure3Hamiltonian(o search.Options) *Report {
	r := &Report{ID: "Figure 3", Title: "all-selected ≤lp hamiltonian (Prop. 19)"}
	red := reduce.AllSelectedToHamiltonian()
	fig := graph.MustNew(4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}}, nil)
	for _, tt := range []struct {
		name   string
		labels []string
	}{
		{"figure labels (u2 unselected)", []string{"1", "0", "1", "1"}},
		{"all selected", []string{"1", "1", "1", "1"}},
	} {
		g := fig.MustWithLabels(tt.labels)
		res, err := red.Apply(g, nil)
		if err != nil {
			r.Rows = append(r.Rows, row(tt.name, "no error", err))
			continue
		}
		r.Rows = append(r.Rows,
			row(tt.name+": equivalence", props.AllSelected(g), props.Hamiltonian(res.Out)),
			row(tt.name+": cluster map valid", nil, res.Validate(g)),
		)
	}
	mismatches := SweepReduction(red, nil, props.AllSelected, props.Hamiltonian,
		[]*graph.Graph{graph.Path(3), graph.Cycle(4), graph.Star(4)}, o)
	r.Rows = append(r.Rows, row("exhaustive sweep mismatches", 0, mismatches))
	return r
}

// Figure9Eulerian reproduces Figure 9 (Proposition 18), the labeling
// sweep sharded across the engine pool.
func Figure9Eulerian(o search.Options) *Report {
	r := &Report{ID: "Figure 9", Title: "all-selected ≤lp eulerian (Prop. 18)"}
	red := reduce.AllSelectedToEulerian()
	g := graph.Path(3).MustWithLabels([]string{"1", "1", "0"})
	res, err := red.Apply(g, nil)
	if err != nil {
		r.Rows = append(r.Rows, row("figure instance", "no error", err))
		return r
	}
	r.Rows = append(r.Rows,
		row("figure instance eulerian", false, props.Eulerian(res.Out)),
		row("cluster map valid", nil, res.Validate(g)),
	)
	mismatches := SweepReduction(red, nil, props.AllSelected, props.Eulerian,
		[]*graph.Graph{graph.Single(""), graph.Path(4), graph.Cycle(4), graph.Complete(4)}, o)
	r.Rows = append(r.Rows, row("exhaustive sweep mismatches", 0, mismatches))
	return r
}

// Figure11CoHamiltonian reproduces Figure 11 (Proposition 20), the
// labeling sweep sharded across the engine pool.
func Figure11CoHamiltonian(o search.Options) *Report {
	r := &Report{ID: "Figure 11", Title: "not-all-selected ≤lp hamiltonian (Prop. 20)"}
	red := reduce.NotAllSelectedToHamiltonian()
	fig := graph.Path(3).MustWithLabels([]string{"1", "1", "0"})
	res, err := red.Apply(fig, nil)
	if err != nil {
		r.Rows = append(r.Rows, row("figure instance", "no error", err))
		return r
	}
	r.Rows = append(r.Rows,
		row("figure instance hamiltonian", true, props.Hamiltonian(res.Out)),
		row("cluster map valid", nil, res.Validate(fig)),
	)
	mismatches := SweepReduction(red, nil, props.NotAllSelected, props.Hamiltonian,
		[]*graph.Graph{graph.Single(""), graph.Path(2)}, o)
	r.Rows = append(r.Rows, row("exhaustive sweep mismatches", 0, mismatches))
	return r
}

// Figure4Colorability reproduces Figures 4/12 (Theorem 23): the chain
// sat-graph → 3-sat-graph → 3-colorable on the figure's two-node Boolean
// graph plus a sweep.
func Figure4Colorability() *Report {
	r := &Report{ID: "Figure 4", Title: "sat-graph ≤lp 3-colorable (Thm. 23)"}
	chain := reduce.Compose(reduce.SatGraphTo3SatGraph(), reduce.ThreeSatGraphToThreeColorable())
	mk := func(formulas ...string) *graph.Graph {
		fs := make([]sat.Formula, len(formulas))
		for i, s := range formulas {
			fs[i] = sat.MustParse(s)
		}
		bg, err := sat.NewBooleanGraph(pathOf(len(formulas)), fs)
		if err != nil {
			panic(err)
		}
		return bg.G
	}
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"figure instance (satisfiable)", mk("P1|~P2|~P3", "P3|P4|~P5")},
		{"conflicting shared variable", mk("P", "~P")},
	}
	for _, tt := range cases {
		id := graph.SmallLocallyUnique(tt.g, 1)
		res, err := chain.Apply(tt.g, id)
		if err != nil {
			r.Rows = append(r.Rows, row(tt.name, "no error", err))
			continue
		}
		// The gadget graphs are sizable; decide colorability through the
		// DPLL encoding rather than naive backtracking.
		r.Rows = append(r.Rows,
			row(tt.name, props.SatGraph(tt.g), props.KColorableSAT(res.Out, 3)),
		)
	}
	// An unsatisfiable node formula, run through the second stage only
	// (already 3-CNF, so no Tseytin blow-up: refuting 3-colorability of
	// the gadget graph stays cheap).
	unsat := mk("(A|B)&(~A|B)&(A|~B)&(~A|~B)", "C")
	res, err := reduce.ThreeSatGraphToThreeColorable().Apply(unsat, nil)
	if err != nil {
		r.Rows = append(r.Rows, row("unsatisfiable node", "no error", err))
		return r
	}
	r.Rows = append(r.Rows,
		row("unsatisfiable node", false, props.KColorableSAT(res.Out, 3)),
	)
	return r
}

func pathOf(n int) *graph.Graph {
	if n == 1 {
		return graph.Single("")
	}
	return graph.Path(n)
}

// Figure5Structure reproduces Figure 5 and the neighborhood cardinalities
// quoted in Section 3.
func Figure5Structure() *Report {
	r := &Report{ID: "Figure 5", Title: "structural representation $G"}
	g := graph.Figure5Graph()
	rep := structure.NewRep(g)
	bits := 0
	for u := 0; u < g.N(); u++ {
		bits += len(g.Label(u))
	}
	r.Rows = append(r.Rows,
		row("card($G) = nodes + bits", g.N()+bits, rep.Card()),
		row("card(N_0(u)) for u=1101-node", 5, rep.NeighborhoodCard(2, 0)),
		row("N_2(u) covers $G", rep.Card(), rep.NeighborhoodCard(2, 2)),
	)
	return r
}

// Figure6Pictures reproduces Figures 6/14 and the tiling systems of
// Section 9.2.
func Figure6Pictures() *Report {
	r := &Report{ID: "Figure 6", Title: "pictures, $P, and tiling systems"}
	p := pictures.MustNew(2, [][]string{
		{"00", "01", "00", "01"},
		{"10", "11", "10", "11"},
		{"00", "01", "00", "01"},
	})
	s := p.Rep()
	r.Rows = append(r.Rows, row("card($P)", 12, s.Card()))

	squares := pictures.SquaresSystem()
	okCount, total := 0, 0
	for m := 1; m <= 5; m++ {
		for n := 1; n <= 5; n++ {
			got, err := squares.Accepts(pictures.Uniform(0, m, n, ""))
			if err != nil {
				r.Rows = append(r.Rows, row("squares system", "no error", err))
				return r
			}
			total++
			if got == (m == n) {
				okCount++
			}
		}
	}
	r.Rows = append(r.Rows, row("squares system correct on 5x5 sweep", total, okCount))

	// Picture-to-graph encoding sanity.
	g := p.ToGraph()
	// A 3×4 grid has 3·3 horizontal and 2·4 vertical edges.
	r.Rows = append(r.Rows,
		row("picture graph nodes", 12, g.N()),
		row("picture graph grid edges", 3*3+2*4, g.NumEdges()),
	)
	return r
}

// Figure8TuringMachine reproduces Figure 8: the faithful three-tape
// distributed TM, cross-validated against the functional engine, with
// the exhaustive labeling cross-check sharded across the engine pool
// (one TM run plus one engine run per instance; errors count as
// mismatches).
func Figure8TuringMachine(o search.Options) *Report {
	r := &Report{ID: "Figure 8", Title: "distributed Turing machines"}
	tm := dtm.AllSelectedMachine()
	fn := arbiters.AllSelected()
	bases := []*graph.Graph{graph.Path(3), graph.Cycle(4), graph.Star(4)}
	cases, _ := LabelingSpace(bases)
	mismatches := labelingSweep(bases, func(g *graph.Graph) bool {
		id := graph.SmallLocallyUnique(g, 1)
		e, err := tm.Run(g, id, nil, dtm.Options{})
		if err != nil {
			return false
		}
		ok, err := simulate.Decide(fn, g, id, simulate.Options{})
		if err != nil {
			return false
		}
		return e.Accepted() == ok && e.Accepted() == props.AllSelected(g)
	}).Failures(o, nil)
	r.Rows = append(r.Rows, row(fmt.Sprintf("TM vs engine vs ground truth (%d cases)", cases), 0, mismatches))

	// The all-equal TM exercises real message passing (2 rounds).
	eq := dtm.AllEqualMachine()
	g := graph.Cycle(4).MustWithLabels([]string{"10", "10", "10", "10"})
	e, err := eq.Run(g, graph.SmallLocallyUnique(g, 1), nil, dtm.Options{})
	if err != nil {
		r.Rows = append(r.Rows, row("all-equal TM", "no error", err))
		return r
	}
	r.Rows = append(r.Rows,
		row("all-equal TM accepts equal labels", true, e.Accepted()),
		row("all-equal TM rounds", 2, e.Rounds),
	)
	return r
}

// Figure7Ladder reproduces the locality ladder of Figure 7: each property
// is placed at its level by running the corresponding arbiter/game from
// the paper on instance sweeps. Every sweep is a Sweep sharded across the
// engine pool. The instance is the unit of parallelism: each check plays
// its whole game on the sequential inner engine (the Prepared.Batch
// discipline), so the pool is saturated by instances rather than by one
// game's quantifier levels.
func Figure7Ladder(o search.Options) *Report {
	r := &Report{ID: "Figure 7", Title: "locality ladder: properties at their levels"}
	inner := core.Engine{Opts: search.Sequential()}

	// strategyCheck plays the three-level certificate game with Eve's
	// strategies on the uniform middle domain and compares against the
	// ground-truth property.
	strategyCheck := func(arb func() *core.Arbiter, strats func() []core.Strategy,
		truth func(*graph.Graph) bool) func(*graph.Graph) bool {
		return func(g *graph.Graph) bool {
			prep, err := simulate.Prepare(g, graph.SmallLocallyUnique(g, 1))
			if err != nil {
				return false
			}
			ok, err := arb().StrategyGameValueEngine(prep, strats(),
				[]cert.Domain{{}, cert.UniformDomain(g.N(), 1), {}}, inner)
			return err == nil && ok == truth(g)
		}
	}

	sweeps := []struct {
		name  string
		sweep Sweep
	}{
		// eulerian ∈ LP: the even-degree decider matches ground truth.
		{"eulerian ∈ LP (decider sweep)", graphSweep(
			[]*graph.Graph{graph.Cycle(4), graph.Cycle(5), graph.Path(4), graph.Complete(5), graph.Star(4)},
			func(g *graph.Graph) bool {
				ok, err := simulate.Decide(arbiters.Eulerian(), g, graph.SmallLocallyUnique(g, 1), simulate.Options{})
				return err == nil && ok == props.Eulerian(g)
			})},
		// 3-colorable ∈ Σ^lp_1: verifier + Eve's coloring strategy.
		{"3-colorable ∈ Σ^lp_1 (verifier sweep)", graphSweep(
			[]*graph.Graph{graph.Cycle(5), graph.Complete(4), graph.Grid(2, 3), graph.Star(4)},
			func(g *graph.Graph) bool {
				arb := &core.Arbiter{Machine: arbiters.ThreeColorable(), Level: core.Sigma(1), RadiusID: 1, Bound: cert.Bound{R: 1, P: cert.Polynomial{0, 2}}}
				prep, err := simulate.Prepare(g, graph.SmallLocallyUnique(g, 1))
				if err != nil {
					return false
				}
				ok, err := arb.StrategyGameValueEngine(prep,
					[]core.Strategy{arbiters.ColoringStrategy(3)}, []cert.Domain{{}}, inner)
				return err == nil && ok == props.ThreeColorable(g)
			})},
		// hamiltonian ∈ Σ^lp_3: the Example 9 arbiter with Eve's strategies.
		{"hamiltonian ∈ Σ^lp_3 (game sweep)", graphSweep(
			[]*graph.Graph{graph.Cycle(4), graph.Path(4), graph.Star(4), graph.Complete(4)},
			strategyCheck(games.HamiltonianArbiter,
				func() []core.Strategy {
					return []core.Strategy{games.HamiltonianStrategy(), nil, games.RootChargeStrategy()}
				}, props.Hamiltonian))},
		// not-all-selected ∈ Σ^lp_3 but ∉ Σ^lp_1 (see Figure 2 experiment).
		{"not-all-selected ∈ Σ^lp_3 (game sweep)", labelingSweep(
			[]*graph.Graph{graph.Path(3), graph.Cycle(4)},
			strategyCheck(games.NotAllSelectedArbiter,
				func() []core.Strategy {
					return []core.Strategy{games.ForestStrategy(games.IsUnselected), nil, games.ChargeStrategy(nil)}
				}, props.NotAllSelected))},
		// one-selected ∈ Σ^lp_3 via the uniqueness game.
		{"one-selected ∈ Σ^lp_3 (uniqueness game sweep)", labelingSweep(
			[]*graph.Graph{graph.Path(3), graph.Star(4)},
			strategyCheck(games.OneSelectedArbiter,
				func() []core.Strategy {
					return []core.Strategy{games.ForestStrategy(games.IsSelected), nil, games.ChargeStrategy(games.IsSelected)}
				}, props.OneSelected))},
		// acyclic ∈ Σ^lp_3 via the spanning-tree game of Section 5.2.
		{"acyclic ∈ Σ^lp_3 (tree game sweep)", graphSweep(
			[]*graph.Graph{graph.Path(4), graph.Star(4), graph.Cycle(4), graph.Complete(4)},
			strategyCheck(games.AcyclicArbiter,
				func() []core.Strategy {
					return []core.Strategy{games.AcyclicStrategy(), nil, games.RootChargeStrategy()}
				}, props.Acyclic))},
		// odd ∈ Σ^lp_3 via the modulo-two counter game of Section 5.2
		// (exact game semantics; the machine variant is tested in the
		// games package).
		{"odd ∈ Σ^lp_3 (counter game sweep)", graphSweep(
			[]*graph.Graph{graph.Path(3), graph.Path(4), graph.Cycle(5), graph.Star(4)},
			func(g *graph.Graph) bool { return games.EveWinsOdd(g) == props.Odd(g) })},
		// non-2-colorable ∈ Σ^lp_3 via the odd-cycle retracing game.
		{"non-2-colorable ∈ Σ^lp_3 (odd-cycle game sweep)", graphSweep(
			[]*graph.Graph{graph.Cycle(4), graph.Cycle(5), graph.Complete(4), graph.Grid(2, 3)},
			strategyCheck(games.NonTwoColorableArbiter,
				func() []core.Strategy {
					return []core.Strategy{games.NonTwoColorableStrategy(), nil, games.NonTwoColorChargeStrategy()}
				}, props.NonTwoColorable))},
	}
	// One rung at a time: the instances within each rung are the
	// parallel work, so the ladder as a whole stays inside o's worker
	// budget instead of multiplying it.
	for _, s := range sweeps {
		r.Rows = append(r.Rows, row(s.name, 0, s.sweep.Failures(o, nil)))
	}
	return r
}
