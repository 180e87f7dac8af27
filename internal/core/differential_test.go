package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/simulate"
)

// gossip is a multi-round machine whose halting round and verdict
// depend on every certificate a node can see: each node folds its
// label, its certificates and every message it receives into a running
// hash, sends digits of that hash, halts after a round drawn from its
// certificates (1..maxHalt), and accepts iff the final hash falls below
// a fraction accept/8 of its range (accept 8 accepts everywhere). A rejecting node's ball therefore
// grows with its halting round, which is what the leaf keep reads.
func gossip(maxHalt, accept int) *simulate.Machine {
	type st struct {
		h    uint64
		halt int
		out  []string
	}
	fold := func(s *st, parts ...string) {
		f := fnv.New64a()
		f.Write([]byte(strconv.FormatUint(s.h, 36)))
		for _, p := range parts {
			f.Write([]byte(p))
			f.Write([]byte{0})
		}
		s.h = f.Sum64()
	}
	return &simulate.Machine{
		Name: fmt.Sprintf("test:gossip-%d-%d", maxHalt, accept),
		Init: func(in simulate.Input) any {
			s := &st{out: make([]string, in.Degree)}
			fold(s, in.Label)
			fold(s, in.Certs...)
			s.halt = 1 + int(s.h%uint64(maxHalt))
			return s
		},
		Round: func(state any, round int, recv []string) ([]string, bool) {
			s := state.(*st)
			fold(s, recv...)
			for j := range s.out {
				s.out[j] = strconv.FormatUint((s.h>>(3*j))%4, 10)
			}
			return s.out, round >= s.halt
		},
		Output: func(state any) string {
			if int(state.(*st).h%8) < accept {
				return "1"
			}
			return "0"
		},
	}
}

// generatedGraph draws a small connected graph of one of the families
// the differential test covers, with random 0/1 labels.
func generatedGraph(rng *rand.Rand, n int) (string, *graph.Graph) {
	var name string
	var g *graph.Graph
	switch rng.Intn(6) {
	case 0:
		name, g = "path", graph.Path(n)
	case 1:
		name, g = "cycle", graph.Cycle(max(n, 3))
	case 2:
		name, g = "star", graph.Star(n)
	case 3:
		name, g = "tree", graph.RandomTree(n, rng)
	case 4:
		name, g = "random", graph.RandomConnected(n, 0.4, rng)
	default:
		name, g = "complete", graph.Complete(n)
	}
	labels := make([]string, g.N())
	for u := range labels {
		labels[u] = strconv.Itoa(rng.Intn(2))
	}
	return fmt.Sprintf("%s%d", name, g.N()), g.MustWithLabels(labels)
}

// bestReply is Eve's optimal last move: the first assignment of d under
// which m accepts on prep after the moves above it (all-empty when none
// does). It reads every certificate of those moves, and a game whose
// last move it plays has the exhaustive game's value.
func bestReply(m *simulate.Machine, prep *simulate.Prepared, d cert.Domain) Strategy {
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
	levels := []Level{Sigma(1), Pi(1), Sigma(2), Pi(2)}
	type game struct {
		kind string
		play func(Engine) (bool, error)
	}
	values := map[string]bool{} // the (level, kind, value) triples played
	var refLeaves, jumpLeaves int64
	for i := 0; i < 160; i++ {
		level := levels[i%len(levels)]
		// Two-level games stay small enough for the reference engine.
		n := 2 + rng.Intn(6)
		if level.Alternations == 2 {
			n = 2 + rng.Intn(4)
		}
		name, g := generatedGraph(rng, n)
		n = g.N()
		domains := make([]cert.Domain, level.Alternations)
		for j := range domains {
			domains[j] = cert.UniformDomain(n, 1)
		}
		arb := &Arbiter{Machine: gossip(1+rng.Intn(3), 1+rng.Intn(8)), Level: level, RadiusID: 1}
		id := graph.GloballyUnique(g)
		if rng.Intn(2) == 0 {
			id = graph.SmallLocallyUnique(g, 1)
		}
		prep, err := simulate.Prepare(g, id)
		if err != nil {
			t.Fatal(err)
		}
		games := []game{{"exhaustive", func(e Engine) (bool, error) { return arb.GameValueEngine(prep, domains, e) }}}
		if level.Alternations == 2 {
			strategies := make([]Strategy, 2)
			if level.FirstExistential {
				k := make(cert.Assignment, n)
				for u := range k {
					k[u] = []string{"", "0", "1"}[eve.Intn(3)]
				}
				strategies[0] = func(*graph.Graph, graph.IDAssignment, []cert.Assignment) (cert.Assignment, error) { return k, nil }
			} else {
				strategies[1] = bestReply(arb.Machine, prep, domains[1])
			}
			games = append(games, game{"strategy", func(e Engine) (bool, error) { return arb.StrategyGameValueEngine(prep, strategies, domains, e) }})
		}
		var full bool // the exhaustive game's value
		for _, gm := range games {
			ref := Reference()
			ref.Counters = new(Counters)
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
				e := Engine{Opts: o, Counters: new(Counters)}
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
