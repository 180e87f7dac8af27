// Package repro's root benchmark harness: one benchmark per reproduced
// figure/example of the paper, as indexed in DESIGN.md. The paper
// reports no absolute performance numbers (it is a theory paper); these
// benchmarks document the cost of regenerating each machine-checked
// experiment, the scaling shape of the core machinery, and — through the
// *Engines pairs — the sequential-vs-parallel behavior of the
// internal/search evaluation engine.
package repro

import (
	"testing"

	"repro/internal/arbiters"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/dtm"
	"repro/internal/experiments"
	"repro/internal/games"
	"repro/internal/graph"
	"repro/internal/logic"
	"repro/internal/pictures"
	"repro/internal/props"
	"repro/internal/reduce"
	"repro/internal/sat"
	"repro/internal/search"
	"repro/internal/simulate"
	"repro/internal/structure"
)

// engines is the sequential/parallel pair every *Engines benchmark runs:
// identical inputs, identical results, only the search engine differs.
// On a single-CPU host the two coincide (the parallel engine degrades to
// one worker); the speedup is measured, not asserted, so compare the
// sub-benchmarks on the target hardware.
var engines = []struct {
	name string
	opts search.Options
}{
	{"sequential", search.Sequential()},
	{"parallel", search.Parallel(0)},
}

// BenchmarkFig1ThreeRoundColoring regenerates Figure 1: the minimax
// evaluation of the 3-round 3-colorability game on both instances.
func BenchmarkFig1ThreeRoundColoring(b *testing.B) {
	no := graph.Figure1NoInstance()
	yes := graph.Figure1YesInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		noWins, err := props.ThreeRoundThreeColorable(no, search.Default())
		if err != nil {
			b.Fatal(err)
		}
		yesWins, err := props.ThreeRoundThreeColorable(yes, search.Default())
		if err != nil {
			b.Fatal(err)
		}
		if noWins || !yesWins {
			b.Fatal("figure 1 game value changed")
		}
	}
}

// BenchmarkFig2Separations regenerates the ground-level separations of
// Figure 2/13 (Propositions 24 and 26).
func BenchmarkFig2Separations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !experiments.Figure2Separations(search.Default()).OK() {
			b.Fatal("separation experiment failed")
		}
	}
}

// BenchmarkFig3HamiltonianReduction regenerates Figure 3/10: the
// Proposition 19 reduction plus the ground-truth Hamiltonicity check.
func BenchmarkFig3HamiltonianReduction(b *testing.B) {
	g := graph.Cycle(4).MustWithLabels(graph.AllSelectedLabels(4))
	red := reduce.AllSelectedToHamiltonian()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := red.Apply(g, nil)
		if err != nil || !props.Hamiltonian(res.Out) {
			b.Fatal("reduction broke")
		}
	}
}

// BenchmarkFig4ColorabilityReduction regenerates Figure 4/12: the
// Cook–Levin chain into 3-colorability.
func BenchmarkFig4ColorabilityReduction(b *testing.B) {
	bg, err := sat.NewBooleanGraph(graph.Path(2), []sat.Formula{
		sat.MustParse("P1|~P2|~P3"), sat.MustParse("P3|P4|~P5"),
	})
	if err != nil {
		b.Fatal(err)
	}
	chain := reduce.Compose(reduce.SatGraphTo3SatGraph(), reduce.ThreeSatGraphToThreeColorable())
	id := graph.SmallLocallyUnique(bg.G, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := chain.Apply(bg.G, id)
		if err != nil || !props.ThreeColorable(res.Out) {
			b.Fatal("chain broke")
		}
	}
}

// BenchmarkFig5Structure regenerates Figure 5: building structural
// representations.
func BenchmarkFig5Structure(b *testing.B) {
	g := graph.Figure5Graph()
	want := g.N()
	for u := 0; u < g.N(); u++ {
		want += len(g.Label(u))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if structure.NewRep(g).Card() != want {
			b.Fatal("rep changed")
		}
	}
}

// BenchmarkFig6Pictures regenerates Figure 6/14: picture representations
// and the squares tiling system.
func BenchmarkFig6Pictures(b *testing.B) {
	squares := pictures.SquaresSystem()
	p := pictures.Uniform(0, 4, 4, "")
	q := pictures.Uniform(0, 4, 3, "")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		okP, err1 := squares.Accepts(p)
		okQ, err2 := squares.Accepts(q)
		if err1 != nil || err2 != nil || !okP || okQ {
			b.Fatal("tiling system changed")
		}
	}
}

// BenchmarkFig7LocalityLadder regenerates the Figure 7 ladder experiment.
func BenchmarkFig7LocalityLadder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !experiments.Figure7Ladder(search.Default()).OK() {
			b.Fatal("ladder failed")
		}
	}
}

// BenchmarkFig8TuringMachine regenerates Figure 8: the faithful
// three-tape TM exchanging real messages.
func BenchmarkFig8TuringMachine(b *testing.B) {
	m := dtm.AllEqualMachine()
	g := graph.Cycle(8).MustWithLabels([]string{"10", "10", "10", "10", "10", "10", "10", "10"})
	id := graph.SmallLocallyUnique(g, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := m.Run(g, id, nil, dtm.Options{})
		if err != nil || !e.Accepted() {
			b.Fatal("TM broke")
		}
	}
}

// BenchmarkFig9EulerianReduction regenerates Figure 9 (Proposition 18).
func BenchmarkFig9EulerianReduction(b *testing.B) {
	g := graph.Complete(4).MustWithLabels(graph.BitLabels(4, 0b0111))
	red := reduce.AllSelectedToEulerian()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := red.Apply(g, nil)
		if err != nil || props.Eulerian(res.Out) {
			b.Fatal("reduction broke")
		}
	}
}

// BenchmarkFig11CoReduction regenerates Figure 11 (Proposition 20).
func BenchmarkFig11CoReduction(b *testing.B) {
	g := graph.Path(2).MustWithLabels([]string{"1", "0"})
	red := reduce.NotAllSelectedToHamiltonian()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := red.Apply(g, nil)
		if err != nil || !props.Hamiltonian(res.Out) {
			b.Fatal("reduction broke")
		}
	}
}

// BenchmarkExampleFormulas regenerates the Section 5.2 examples: the
// Σ^lfo_1 3-colorability formula evaluated by second-order enumeration.
func BenchmarkExampleFormulas(b *testing.B) {
	g := graph.Cycle(5)
	rep := structure.NewRep(g)
	f := logic.ThreeColorable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := logic.Sat(rep.Structure, f, logic.Options{MaxEnumBits: 18})
		if err != nil || !ok {
			b.Fatal("formula evaluation broke")
		}
	}
}

// BenchmarkSpanningForestGame measures the Σ^lp_3 spanning-forest game
// (Example 6 semantics) on a labeled cycle.
func BenchmarkSpanningForestGame(b *testing.B) {
	g := graph.Cycle(5).MustWithLabels([]string{"1", "1", "0", "1", "1"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !games.EveWinsPointsTo(g, games.IsUnselected, search.Default()) {
			b.Fatal("game value changed")
		}
	}
}

// BenchmarkFaginCrossValidation regenerates the Theorem 14 experiment.
func BenchmarkFaginCrossValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !experiments.FaginCrossValidation().OK() {
			b.Fatal("Fagin cross-validation failed")
		}
	}
}

// BenchmarkCookLevin regenerates the Theorem 22 τ-translation and joint
// satisfiability check.
func BenchmarkCookLevin(b *testing.B) {
	g := graph.Cycle(5)
	f := logic.KColorable(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bg, err := reduce.FormulaToBooleanGraph(g, f)
		if err != nil || !bg.Satisfiable() {
			b.Fatal("translation broke")
		}
	}
}

// BenchmarkLemma13Envelope regenerates the space-time envelope
// measurement.
func BenchmarkLemma13Envelope(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !experiments.Lemma13Envelope().OK() {
			b.Fatal("envelope violated")
		}
	}
}

// BenchmarkTilingSystems measures tiling acceptance across an exhaustive
// 1-bit picture family.
func BenchmarkTilingSystems(b *testing.B) {
	ts := pictures.TopRowOnesSystem()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		pictures.ForEachPicture(1, 2, 3, func(p *pictures.Picture) bool {
			ok, err := ts.Accepts(p)
			if err != nil {
				b.Fatal(err)
			}
			if ok {
				count++
			}
			return true
		})
		if count != 1 {
			b.Fatalf("language size %d", count)
		}
	}
}

// BenchmarkLocalEngineScaling measures the synchronous LOCAL engine on
// growing cycles (the substrate every arbiter runs on).
func BenchmarkLocalEngineScaling(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		n := n
		b.Run(sizeName(n), func(b *testing.B) {
			g := graph.Cycle(n).MustWithLabels(graph.AllSelectedLabels(n))
			id := graph.SmallLocallyUnique(g, 1)
			m := arbiters.AllEqual()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok, err := simulate.Decide(m, g, id, simulate.Options{})
				if err != nil || !ok {
					b.Fatal("engine broke")
				}
			}
		})
	}
}

// BenchmarkCertificateGame measures exhaustive Σ^lp_1 game evaluation (the
// quantifier machinery of the hierarchy) for 2-colorability on C4.
func BenchmarkCertificateGame(b *testing.B) {
	g := graph.Cycle(4)
	id := graph.SmallLocallyUnique(g, 1)
	arb := &core.Arbiter{Machine: arbiters.TwoColorable(), Level: core.Sigma(1),
		RadiusID: 1, Bound: cert.Bound{R: 1, P: cert.Polynomial{0, 2}}}
	domains := []cert.Domain{cert.UniformDomain(4, 1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prep, err := simulate.Prepare(g, id)
		if err != nil {
			b.Fatal(err)
		}
		ok, err := arb.GameValueEngine(prep, domains, core.Engine{})
		if err != nil || !ok {
			b.Fatal("game broke")
		}
	}
}

// BenchmarkThreeRoundColoringEngines is the Example 1 minimax under
// both engines on a spider of 8 length-2 legs: Eve's opening block is
// 3^8 leaf colorings, large enough that the parallel engine splits it
// across the pool (the Figure 1 instances themselves are below the
// engine's small-space threshold, where both engines coincide — see
// BenchmarkFig1ThreeRoundColoring for their absolute cost).
func BenchmarkThreeRoundColoringEngines(b *testing.B) {
	g := spiderGraph(8)
	for _, e := range engines {
		b.Run(e.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if won, err := props.ThreeRoundThreeColorable(g, e.opts); err != nil || won {
					b.Fatalf("Adam lost the spider game (err %v)", err)
				}
			}
		})
	}
}

// spiderGraph is a star of k length-2 legs: k degree-1 leaves (Eve's
// opening block), k degree-2 mid nodes (Adam's), one center (Eve's
// closing block). Adam wins by mirroring a leaf color, so the opening
// space is explored exhaustively.
func spiderGraph(k int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < k; i++ {
		mid, leaf := 2*i+1, 2*i+2
		edges = append(edges, graph.Edge{U: 0, V: mid}, graph.Edge{U: mid, V: leaf})
	}
	return graph.MustNew(2*k+1, edges, nil)
}

// BenchmarkFig2SeparationsEngines runs the ground-level separations with
// the machine executions fanned out across the pool vs. strictly in
// sequence.
func BenchmarkFig2SeparationsEngines(b *testing.B) {
	for _, e := range engines {
		b.Run(e.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !experiments.Figure2Separations(e.opts).OK() {
					b.Fatal("separation experiment failed")
				}
			}
		})
	}
}

// BenchmarkNonColorableGameEngines evaluates the Example 7 complement
// game on K4 with k=3: the graph is not 3-colorable, so the outermost
// universal quantifier over all 2^12 color-set proposals runs to
// exhaustion — the workload the prefix-split pool is built for.
func BenchmarkNonColorableGameEngines(b *testing.B) {
	g := graph.Complete(4)
	for _, e := range engines {
		b.Run(e.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !games.EveWinsNonKColorable(g, 3, e.opts) {
					b.Fatal("K4 became 3-colorable")
				}
			}
		})
	}
}

// BenchmarkSpanningForestGameEngines is the Example 6 game on an
// all-selected C9, where Eve has no winning forest and the engine must
// refute every one of the 3^9 parent assignments.
func BenchmarkSpanningForestGameEngines(b *testing.B) {
	g := graph.Cycle(9).MustWithLabels(graph.AllSelectedLabels(9))
	for _, e := range engines {
		b.Run(e.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if games.EveWinsPointsTo(g, games.IsUnselected, e.opts) {
					b.Fatal("game value changed")
				}
			}
		})
	}
}

// BenchmarkCoreGameEngines evaluates a full three-alternation certificate
// game (Σ^lp_3: ∃κ1∀κ2∃κ3) under both engine configurations. The machine
// accepts iff the three certificates are single bits whose parity matches
// the label; Adam's invalid κ2 plays defeat every κ1, so the outer
// existential level — 3^4 = 81 assignments — runs to exhaustion and every
// branch exercises the levels below it against one shared
// simulate.Prepared instance.
//
// "sequential" is core.Reference(): the unoptimized equivalence baseline
// (one worker, no memo, no pooled leaves).
// "parallel" is the optimized default engine with a fresh transposition
// table per iteration, so every iteration plays the cold game (pooled
// incremental leaves, backjumping, the memo within the game) rather
// than one whole-game table hit.
func BenchmarkCoreGameEngines(b *testing.B) {
	g := graph.Path(4).MustWithLabels([]string{"0", "1", "1", "0"})
	id := graph.GloballyUnique(g)
	type st struct{ ok bool }
	m := &simulate.Machine{
		Name: "bench:triple-parity",
		Init: func(in simulate.Input) any {
			ok := len(in.Certs) == 3 && len(in.Label) == 1
			for _, c := range in.Certs {
				if len(c) != 1 {
					ok = false
				}
			}
			if ok {
				ok = (in.Certs[0][0] ^ in.Certs[1][0] ^ in.Certs[2][0] ^ in.Label[0]) == 0
			}
			return &st{ok: ok}
		},
		Round:  func(any, int, []string) ([]string, bool) { return nil, true },
		Output: func(s any) string { return map[bool]string{true: "1", false: "0"}[s.(*st).ok] },
	}
	arb := &core.Arbiter{Machine: m, Level: core.Sigma(3),
		RadiusID: 1, Bound: cert.Bound{R: 1, P: cert.Polynomial{8}}}
	domains := []cert.Domain{
		cert.UniformDomain(4, 1), cert.UniformDomain(4, 1), cert.UniformDomain(4, 1),
	}
	prep, err := simulate.Prepare(g, id)
	if err != nil {
		b.Fatal(err)
	}
	for _, tt := range []struct {
		name string
		eng  func() core.Engine
	}{
		{"sequential", core.Reference},
		{"parallel", func() core.Engine { return core.Engine{Opts: search.Parallel(0), Memo: core.NewMemo(0)} }},
	} {
		b.Run(tt.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ok, err := arb.GameValueEngine(prep, domains, tt.eng())
				if err != nil || ok {
					b.Fatal("Σ3 game value changed")
				}
			}
		})
	}
}

// BenchmarkBatchSimulate runs 2^10 certificate assignments of the
// 2-colorability verifier against one prepared C10 through the batch
// scheduler, sequential pool vs parallel pool — the amortized-setup
// workload behind the core game leaves and the experiment sweeps.
func BenchmarkBatchSimulate(b *testing.B) {
	g := graph.Cycle(10)
	id := graph.SmallLocallyUnique(g, 1)
	prep, err := simulate.Prepare(g, id)
	if err != nil {
		b.Fatal(err)
	}
	n := g.N()
	jobs := make([]simulate.Job, 1<<uint(n))
	for mask := range jobs {
		certs := make([][]string, n)
		for u := 0; u < n; u++ {
			if mask&(1<<uint(u)) != 0 {
				certs[u] = []string{"1"}
			} else {
				certs[u] = []string{"0"}
			}
		}
		jobs[mask] = simulate.Job{Machine: arbiters.TwoColorable(), Certs: certs}
	}
	for _, e := range engines {
		b.Run(e.name, func(b *testing.B) {
			opt := simulate.BatchOptions{Workers: e.opts.Workers}
			for i := 0; i < b.N; i++ {
				results, err := prep.Batch(jobs, opt)
				if err != nil {
					b.Fatal(err)
				}
				accepted := 0
				for _, r := range results {
					if r.Accepted() {
						accepted++
					}
				}
				// C10 has exactly two proper 2-colorings.
				if accepted != 2 {
					b.Fatalf("accepted %d certificate assignments, want 2", accepted)
				}
			}
		})
	}
}

// BenchmarkSweepEngines runs the WHOLE experiment suite through the
// sharded sweep engine (experiments.All), sequential pool vs
// parallel pool — the PR 4 tentpole workload: experiments fan out
// across the pool and each experiment's instance sweeps shard through
// the same engine, so the suite's wall clock tracks the worker count
// on multicore hosts (on a single CPU the two engines coincide).
// Recorded in BENCH_pr4.json by `make bench-json`.
func BenchmarkSweepEngines(b *testing.B) {
	for _, e := range engines {
		b.Run(e.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, rep := range experiments.All(e.opts) {
					if !rep.OK() {
						b.Fatalf("experiment %s failed under %s", rep.ID, e.name)
					}
				}
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n < 10:
		return "n=00" + string(rune('0'+n))
	case n < 100:
		return "n=0" + string(rune('0'+n/10)) + string(rune('0'+n%10))
	default:
		return "n=" + string(rune('0'+n/100)) + string(rune('0'+(n/10)%10)) + string(rune('0'+n%10))
	}
}
