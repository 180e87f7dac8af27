package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arbiters"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/props"
	"repro/internal/search"
	"repro/internal/simulate"
)

// bestReply is Eve's optimal last move: the first assignment of d under
// which m accepts on prep after the moves above it (all-empty when none
// does). It reads every certificate of those moves, and a game whose
// last move it plays has the exhaustive game's value.
func bestReply(m *simulate.Machine, prep *simulate.Prepared, d cert.Domain) core.Strategy {
	return func(g *graph.Graph, _ graph.IDAssignment, moves []cert.Assignment) (cert.Assignment, error) {
		best := make(cert.Assignment, g.N())
		var err error
		d.ForEach(func(k cert.Assignment) bool {
			var res *simulate.Result
			// moves has no spare capacity, so the append copies it.
			res, err = prep.Run(m, cert.NodeLists(append(moves, k)...), simulate.Options{})
			if err == nil && res.Accepted() {
				copy(best, k)
				return false
			}
			return err == nil
		})
		return best, err
	}
}

// TestGeneratedGamesMatchReference is the generated differential test
// of the engine against Reference(): Σ1, Π1, Σ2 and Π2 games of gossip
// machines on generated paths, cycles, stars, trees, random connected
// graphs and complete graphs, under the sequential engine, a pool of
// two, and a pool of four forced to split two positions deep. The
// innermost level backjumps on every leaf keep, so a keep that vouched
// for a leaf with another verdict would flip some game's value here,
// and a keep that vouches for too little shows in the leaf count.
//
// Every one-level game is also played with arbiters.KColorable, whose
// rejecting nodes blame a port, on the same graph with colours of one
// or two bits, so that a blame that vouched for too much would flip a
// colouring game's value; a Σ1 value must also be props.KColoring's.
//
// Every two-level game is also played strategy-guided on the same
// graph and machine, with Eve's level cut down to one reply: in Σ2 a
// random fixed assignment comes first and Adam's innermost ∀ walks
// below it; in Π2 her bestReply answers Adam's fanned-out κ1, reading
// all of it. A strategy win must also be an exhaustive win, and a
// bestReply last move must give exactly the exhaustive value.
func TestGeneratedGamesMatchReference(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(19))
	// Eve's fixed first moves come from a stream of their own, so the
	// exhaustive games drawn do not depend on the strategy games.
	eve := rand.New(rand.NewSource(23))
	engines := []search.Options{search.Sequential(), search.Parallel(2), {Workers: 4, SplitDepth: 2}}
	levels := []core.Level{core.Sigma(1), core.Pi(1), core.Sigma(2), core.Pi(2)}
	type game struct {
		kind string
		play func(core.Engine) (bool, error)
	}
	values := map[string]bool{} // the (level, kind, value) triples played
	// The colouring games draw k from a stream of their own, so the
	// gossip games drawn do not depend on them.
	colors := rand.New(rand.NewSource(29))
	// The (level, value) pairs played: Σ1 has both values, and Π1 is
	// always false, since Adam can play no colour at all.
	colorValues := map[string]bool{}
	var refLeaves, jumpLeaves int64
	for i := 0; i < 160; i++ {
		level := levels[i%len(levels)]
		// Two-level games stay small enough for the reference engine.
		n := 2 + rng.Intn(6)
		if level.Alternations == 2 {
			n = 2 + rng.Intn(4)
		}
		name, g := core.GeneratedGraph(rng, n)
		n = g.N()
		domains := make([]cert.Domain, level.Alternations)
		for j := range domains {
			domains[j] = cert.UniformDomain(n, 1)
		}
		arb := &core.Arbiter{Machine: core.Gossip(1+rng.Intn(3), 1+rng.Intn(8)), Level: level, RadiusID: 1}
		id := graph.GloballyUnique(g)
		if rng.Intn(2) == 0 {
			id = graph.SmallLocallyUnique(g, 1)
		}
		prep, err := simulate.Prepare(g, id)
		if err != nil {
			t.Fatal(err)
		}
		games := []game{{"exhaustive", func(e core.Engine) (bool, error) { return arb.GameValueEngine(prep, domains, e) }}}
		if level.Alternations == 2 {
			strategies := make([]core.Strategy, 2)
			if level.FirstExistential {
				k := make(cert.Assignment, n)
				for u := range k {
					k[u] = []string{"", "0", "1"}[eve.Intn(3)]
				}
				strategies[0] = func(*graph.Graph, graph.IDAssignment, []cert.Assignment) (cert.Assignment, error) { return k, nil }
			} else {
				strategies[1] = bestReply(arb.Machine, prep, domains[1])
			}
			games = append(games, game{"strategy", func(e core.Engine) (bool, error) { return arb.StrategyGameValueEngine(prep, strategies, domains, e) }})
		}
		var full bool // the exhaustive game's value
		for _, gm := range games {
			ref := core.Reference()
			ref.Counters = new(core.Counters)
			want, err := gm.play(ref)
			if err != nil {
				t.Fatalf("%s %v %s %s reference: %v", name, level, gm.kind, arb.Machine.Name, err)
			}
			values[fmt.Sprint(level, " ", gm.kind, " ", want)] = true
			if gm.kind == "exhaustive" {
				full = want
			} else if want && !full || !level.FirstExistential && want != full {
				t.Errorf("%s %v %s: strategy value %v, exhaustive %v", name, level, arb.Machine.Name, want, full)
			}
			for k, o := range engines {
				e := core.Engine{Opts: o, Counters: new(core.Counters)}
				got, err := gm.play(e)
				if err != nil || got != want {
					t.Errorf("%s %v %s %s under %+v: (%v, %v), reference %v", name, level, gm.kind, arb.Machine.Name, o, got, err, want)
				}
				// Backjumping and the per-node walks of an innermost ∀
				// are the only layers that skip leaves; only the latter
				// skips a strategy game's leaf, below Eve's reply in Σ2.
				// The sequential engine's count is deterministic.
				if k == 0 && gm.kind == "exhaustive" {
					jumpLeaves += e.Counters.Leaves.Load()
				}
			}
			if gm.kind == "exhaustive" {
				refLeaves += ref.Counters.Leaves.Load()
			}
		}
		if level.Alternations == 1 {
			// One-bit colours for larger graphs keep the reference
			// engine's 3^n or 7^n leaves small.
			k, width := 2, 1
			if n <= 4 {
				k = 2 + colors.Intn(3)
				width = 1 + (k-1)/2
			}
			col := &core.Arbiter{Machine: arbiters.KColorable(k), Level: level, RadiusID: 1}
			domains := []cert.Domain{cert.UniformDomain(n, width)}
			want, err := col.GameValueEngine(prep, domains, core.Reference())
			if err != nil {
				t.Fatalf("%s %v %s reference: %v", name, level, col.Machine.Name, err)
			}
			if _, ok := props.KColoring(g, k); level.FirstExistential && want != ok {
				t.Errorf("%s %v %s: reference value %v, props.KColoring %v", name, level, col.Machine.Name, want, ok)
			}
			colorValues[fmt.Sprint(level, " ", want)] = true
			for _, o := range engines {
				if got, err := col.GameValueEngine(prep, domains, core.Engine{Opts: o}); err != nil || got != want {
					t.Errorf("%s %v %s under %+v: (%v, %v), reference %v", name, level, col.Machine.Name, o, got, err, want)
				}
			}
		}
	}
	if len(colorValues) != 3 || colorValues[fmt.Sprint(core.Pi(1), " ", true)] {
		t.Errorf("generated colouring games had only the (level, value) pairs %v", colorValues)
	}
	// Half the reference leaves today; keeping the maximum instead of the
	// minimum over rejecting nodes, which is sound but jumps less, visits
	// more than two thirds.
	if 3*jumpLeaves >= 2*refLeaves {
		t.Errorf("backjumping visited %d of the reference engine's %d leaves, want under two thirds", jumpLeaves, refLeaves)
	}
	// Both values of every level and kind occur, so none is trivially
	// decided.
	if len(values) != 2*(len(levels)+2) {
		t.Errorf("generated games had only the (level, kind, value) triples %v", values)
	}
}
