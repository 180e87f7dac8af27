package experiments

import (
	"repro/internal/graph"
	"repro/internal/reduce"
	"repro/internal/search"
)

// labelings lists every single-bit labeling of the bases: bases outer,
// masks inner.
func labelings(bases []*graph.Graph) []*graph.Graph {
	var gs []*graph.Graph
	for _, base := range bases {
		for mask := uint(0); mask < 1<<uint(base.N()); mask++ {
			gs = append(gs, base.MustWithLabels(graph.BitLabels(base.N(), mask)))
		}
	}
	return gs
}

// failures checks the graphs one after another and counts those check
// rejects. It polls o.Ctx before each check; once the context is
// cancelled, every graph not yet checked counts as a failure, so a
// cancelled sweep never reads as clean.
func failures(o search.Options, gs []*graph.Graph, check func(*graph.Graph) bool) int {
	n := 0
	for i, g := range gs {
		if o.Ctx != nil && o.Ctx.Err() != nil {
			return n + len(gs) - i
		}
		if !check(g) {
			n++
		}
	}
	return n
}

// reductionFailures applies the reduction to every single-bit labeling
// of the bases and counts mismatches between srcProp(G) and
// dstProp(G'): apply failures, invalid cluster maps and property
// disagreements all count.
func reductionFailures(red reduce.Reduction, srcProp, dstProp func(*graph.Graph) bool,
	bases []*graph.Graph, o search.Options) int {
	return failures(o, labelings(bases), func(g *graph.Graph) bool {
		res, err := red.Apply(g, nil)
		if err != nil || res.Validate(g) != nil {
			return false
		}
		return srcProp(g) == dstProp(res.Out)
	})
}

// Spec is one experiment of the suite: a stable slug (the name used by
// `lph sweep` and the jobs API), a title, and an engine-aware runner.
type Spec struct {
	ID    string
	Title string
	Run   func(o search.Options) *Report
}

// ignoreEngine adapts an experiment with no internal enumeration (pure
// transformations, DPLL-backed checks) to the Spec runner shape.
func ignoreEngine(f func() *Report) func(search.Options) *Report {
	return func(search.Options) *Report { return f() }
}

// Index lists every experiment in the repository's canonical order.
func Index() []Spec {
	return []Spec{
		{"figure1", "3-round 3-colorability game", Figure1},
		{"figure2", "hierarchy separations at ground level", Figure2Separations},
		{"figure3", "all-selected ≤lp hamiltonian (Prop. 19)", Figure3Hamiltonian},
		{"figure4", "sat-graph ≤lp 3-colorable (Thm. 23)", ignoreEngine(Figure4Colorability)},
		{"figure5", "structural representation $G", ignoreEngine(Figure5Structure)},
		{"figure6", "pictures, $P, and tiling systems", ignoreEngine(Figure6Pictures)},
		{"figure7", "locality ladder: properties at their levels", Figure7Ladder},
		{"figure8", "distributed Turing machines", Figure8TuringMachine},
		{"figure9", "all-selected ≤lp eulerian (Prop. 18)", Figure9Eulerian},
		{"figure11", "not-all-selected ≤lp hamiltonian (Prop. 20)", Figure11CoHamiltonian},
		{"examples", "worked formula examples", ignoreEngine(ExampleFormulas)},
		{"fagin", "Fagin-style cross-validation (Thm. 14)", ignoreEngine(FaginCrossValidation)},
		{"cook-levin", "Cook–Levin τ-translation (Thm. 22)", ignoreEngine(CookLevin)},
		{"lemma13", "space-time envelope (Lemma 13)", ignoreEngine(Lemma13Envelope)},
	}
}

// FindSpec resolves an experiment slug against the index.
func FindSpec(id string) (Spec, bool) {
	for _, s := range Index() {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}
