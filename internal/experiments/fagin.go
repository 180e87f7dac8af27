package experiments

import (
	"fmt"

	"repro/internal/arbiters"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/games"
	"repro/internal/graph"
	"repro/internal/logic"
	"repro/internal/props"
	"repro/internal/reduce"
	"repro/internal/search"
	"repro/internal/simulate"
	"repro/internal/structure"
)

// ExampleFormulas checks every Section 5.2 example formula against its
// ground truth on exhaustive small instances (Examples 4–9).
func ExampleFormulas() *Report {
	r := &Report{ID: "Examples 4–9", Title: "Section 5.2 formulas vs ground truths"}

	sweep := func(name string, f logic.Formula, truth func(*graph.Graph) bool,
		bases []*graph.Graph, opts func(*structure.Rep) logic.Options) {
		mismatches := 0
		cases := 0
		for _, base := range bases {
			for mask := uint(0); mask < 1<<uint(base.N()); mask++ {
				g := base.MustWithLabels(graph.BitLabels(base.N(), mask))
				rep := structure.NewRep(g)
				o := logic.Options{}
				if opts != nil {
					o = opts(rep)
				}
				got, err := logic.Sat(rep.Structure, f, o)
				cases++
				if err != nil || got != truth(g) {
					mismatches++
				}
			}
		}
		r.Rows = append(r.Rows, row(fmt.Sprintf("%s (%d cases)", name, cases), 0, mismatches))
	}

	sweep("Example 4: all-selected ∈ LFO", logic.AllSelected(), props.AllSelected,
		[]*graph.Graph{graph.Path(3), graph.Cycle(4)}, nil)
	sweep("Example 5: 3-colorable ∈ Σ^lfo_1", logic.ThreeColorable(), props.ThreeColorable,
		[]*graph.Graph{graph.Path(3), graph.Cycle(3)}, func(rep *structure.Rep) logic.Options {
			return logic.NodeRestricted(rep, logic.ColorNames(3)...)
		})
	sweep("Example 6: not-all-selected ∈ Σ^lfo_3", logic.NotAllSelected(), props.NotAllSelected,
		[]*graph.Graph{graph.Path(2), graph.Cycle(3)}, nodeUniverses)
	sweep("Example 8: one-selected ∈ Σ^lfo_3", logic.OneSelected(), props.OneSelected,
		[]*graph.Graph{graph.Path(3)}, nodeUniverses)

	// Example 7: the Π^lfo_4 complementation schema for non-3-colorable,
	// evaluated through the exact game semantics (∀ color proposals,
	// then the ExistsBadNode forest game).
	e7 := true
	for _, tt := range []struct {
		g *graph.Graph
		k int
	}{
		{graph.Cycle(3), 2}, {graph.Cycle(4), 2}, {graph.Complete(4), 3}, {graph.Cycle(3), 3},
	} {
		want := !props.KColorable(tt.g, tt.k)
		if games.EveWinsNonKColorable(tt.g, tt.k, search.Default()) != want {
			e7 = false
		}
	}
	r.Rows = append(r.Rows, row("Example 7: non-k-colorable ∈ Π^lfo_4 (complement game)", true, e7))

	// Example 9: hamiltonian formula on fixed instances (labels play no
	// role, so no labeling sweep).
	hamOK := true
	for _, tt := range []struct {
		g    *graph.Graph
		want bool
	}{
		{graph.Cycle(3), true}, {graph.Path(3), false},
	} {
		rep := structure.NewRep(tt.g)
		got, err := logic.Sat(rep.Structure, logic.Hamiltonian(), nodeUniverses(rep))
		if err != nil || got != tt.want {
			hamOK = false
		}
	}
	r.Rows = append(r.Rows, row("Example 9: hamiltonian ∈ Σ^lfo_3", true, hamOK))
	return r
}

// nodeUniverses restricts second-order enumeration to the tuples the
// spanning-forest formulas actually inspect: node elements for X, Y, Z and
// self/adjacent node pairs for P — the locality restriction justified by
// Theorem 15 (certificates encode only local fragments of each relation).
func nodeUniverses(rep *structure.Rep) logic.Options {
	g := rep.Graph()
	var nodes []int
	for u := 0; u < g.N(); u++ {
		nodes = append(nodes, rep.NodeElem(u))
	}
	var pairs []logic.Pair
	for u := 0; u < g.N(); u++ {
		pairs = append(pairs, logic.Pair{A: rep.NodeElem(u), B: rep.NodeElem(u)})
		for _, v := range g.Neighbors(u) {
			pairs = append(pairs, logic.Pair{A: rep.NodeElem(u), B: rep.NodeElem(v)})
		}
	}
	return logic.Options{
		UnaryUniverse:  map[string][]int{"X": nodes, "Y": nodes, "Z": nodes},
		BinaryUniverse: map[string][]logic.Pair{"P": pairs},
		MaxEnumBits:    16,
	}
}

// FaginCrossValidation reproduces Theorems 12/14: for each property, the
// Σ^lfo_1 formula (logic side) and the NLP verifier playing the
// certificate game (machine side) agree with the exact ground truth —
// the two sides of the distributed Fagin theorem evaluated against each
// other. The single-node rows are the classical Fagin theorem (NP = Σ¹₁).
func FaginCrossValidation() *Report {
	r := &Report{ID: "Theorem 14", Title: "Fagin cross-validation: formula ≡ machine ≡ truth"}
	type prop struct {
		name    string
		k       int
		formula logic.Formula
		machine *simulate.Machine
		eve     core.Strategy
		truth   func(*graph.Graph) bool
	}
	properties := []prop{
		{"2-colorable", 2, logic.KColorable(2), arbiters.TwoColorable(), arbiters.ColoringStrategy(2), props.TwoColorable},
		{"3-colorable", 3, logic.KColorable(3), arbiters.ThreeColorable(), arbiters.ColoringStrategy(3), props.ThreeColorable},
	}
	bases := []*graph.Graph{
		graph.Path(3), graph.Cycle(3), graph.Cycle(4), graph.Cycle(5),
		graph.Star(4), graph.Complete(4),
	}
	for _, p := range properties {
		mismatches := 0
		for _, g := range bases {
			rep := structure.NewRep(g)
			opts := logic.NodeRestricted(rep, logic.ColorNames(p.k)...)
			opts.MaxEnumBits = 18
			fval, err := logic.Sat(rep.Structure, p.formula, opts)
			if err != nil {
				mismatches++
				continue
			}
			arb := &core.Arbiter{Machine: p.machine, Level: core.Sigma(1), RadiusID: 1,
				Bound: cert.Bound{R: 1, P: cert.Polynomial{0, 2}}}
			prep, err := simulate.Prepare(g, graph.SmallLocallyUnique(g, 1))
			if err != nil {
				mismatches++
				continue
			}
			mval, err := arb.StrategyGameValueEngine(prep, []core.Strategy{p.eve}, []cert.Domain{{}}, core.Engine{})
			if err != nil {
				mismatches++
				continue
			}
			truth := p.truth(g)
			if fval != truth || mval != truth {
				mismatches++
			}
		}
		r.Rows = append(r.Rows, row(p.name+" formula ≡ machine ≡ truth", 0, mismatches))
	}

	// Single-node restriction: the classical Fagin theorem — on graphs in
	// `node`, the 3-colorability formula degenerates to the trivially true
	// property, matching the machine.
	single := graph.Single("1")
	rep := structure.NewRep(single)
	fval, err := logic.Sat(rep.Structure, logic.ThreeColorable(), logic.Options{})
	if err != nil {
		r.Rows = append(r.Rows, row("single-node restriction", "no error", err))
		return r
	}
	r.Rows = append(r.Rows, row("single-node graph 3-colorable", true, fval))
	return r
}

// CookLevin reproduces Theorem 22: the τ-translation of a Σ^lfo_1-sentence
// into a Boolean graph preserves the property — the distributed
// generalization of the Cook–Levin theorem.
func CookLevin() *Report {
	r := &Report{ID: "Theorem 22", Title: "Cook–Levin: Σ^lfo_1 sentence → sat-graph"}
	bases := []*graph.Graph{
		graph.Path(2), graph.Path(3), graph.Cycle(3), graph.Cycle(4), graph.Cycle(5),
		graph.Star(4), graph.Complete(4),
	}
	for k := 2; k <= 3; k++ {
		mismatches := 0
		for _, g := range bases {
			bg, err := reduce.FormulaToBooleanGraph(g, logic.KColorable(k))
			if err != nil {
				mismatches++
				continue
			}
			if bg.Satisfiable() != props.KColorable(g, k) {
				mismatches++
			}
		}
		r.Rows = append(r.Rows, row(fmt.Sprintf("τ(%d-colorable) equisatisfiable", k), 0, mismatches))
	}
	// The produced instance feeds the verifier chain sat-graph →
	// 3-sat-graph → 3-colorable — the completeness pipeline of Section 8,
	// run end-to-end. We run it on a single-node graph, which by
	// Remark 16 is exactly the *classical* Cook–Levin + 3-colorability
	// reduction chain recovered as the paper promises. (On multi-node
	// sources the gadget graphs grow into the hundreds of nodes and
	// exceed what the plain DPLL oracle refutes/solves quickly; the
	// multi-node chain is exercised on hand-sized Boolean graphs in the
	// Figure 4 experiment instead.)
	g := graph.Single("1")
	bg, err := reduce.FormulaToBooleanGraph(g, logic.KColorable(2))
	if err != nil {
		r.Rows = append(r.Rows, row("pipeline", "no error", err))
		return r
	}
	chain := reduce.Compose(reduce.SatGraphTo3SatGraph(), reduce.ThreeSatGraphToThreeColorable())
	res, err := chain.Apply(bg.G, graph.SmallLocallyUnique(bg.G, 1))
	if err != nil {
		r.Rows = append(r.Rows, row("pipeline", "no error", err))
		return r
	}
	r.Rows = append(r.Rows,
		row("pipeline: τ(2-colorable on K1) → gadget graph 3-colorable", true, props.ThreeColorable(res.Out)),
	)
	return r
}

// Lemma13Envelope measures the communication volume of real arbiters
// across growing cycles and checks it stays within a fixed polynomial of
// the local neighborhood size card(N^{$G}_{4r}(u)) — the space-time bound
// of Lemma 13.
func Lemma13Envelope() *Report {
	r := &Report{ID: "Lemma 13", Title: "polynomial space-time envelope"}
	bound := cert.Polynomial{4, 4, 1} // p(n) = 4 + 4n + n², a generous envelope
	for _, n := range []int{5, 9, 15, 25} {
		g := graph.Cycle(n).MustWithLabels(graph.AllSelectedLabels(n))
		id := graph.SmallLocallyUnique(g, 1)
		rep := structure.NewRep(g)
		// Run the Σ^lp_3 Hamiltonian arbiter under Eve's strategy and an
		// empty challenge; record per-node received bytes.
		k1, err := games.HamiltonianStrategy()(g, id, nil)
		if err != nil {
			r.Rows = append(r.Rows, row("strategy", "no error", err))
			return r
		}
		k2 := cert.Empty(n)
		k3, err := games.RootChargeStrategy()(g, id, []cert.Assignment{k1, k2})
		if err != nil {
			r.Rows = append(r.Rows, row("strategy", "no error", err))
			return r
		}
		res, err := simulate.Run(games.HamiltonianArbiter().Machine, g, id,
			cert.NodeLists(k1, k2, k3), simulate.Options{})
		if err != nil {
			r.Rows = append(r.Rows, row("arbiter", "no error", err))
			return r
		}
		within := true
		for u := 0; u < n; u++ {
			local := rep.NeighborhoodCard(u, 4)
			if res.RecvBits[u] > bound.Eval(local) {
				within = false
			}
		}
		r.Rows = append(r.Rows, row(
			fmt.Sprintf("C%d: recv bits ≤ p(card(N_4)) with p = %v", n, bound), true, within))
	}
	return r
}
