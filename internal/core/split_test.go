package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/simulate"
)

// acceptor accepts everywhere in one round.
func acceptor() *simulate.Machine {
	return &simulate.Machine{
		Name:   "test:acceptor",
		Init:   func(simulate.Input) any { return nil },
		Round:  func(any, int, []string) ([]string, bool) { return nil, true },
		Output: func(any) string { return "1" },
	}
}

// rejectsOne accepts at a node iff its last certificate is not "1",
// in one round.
func rejectsOne() *simulate.Machine {
	return &simulate.Machine{
		Name:  "test:rejects-one",
		Init:  func(in simulate.Input) any { return in.Certs[len(in.Certs)-1] != "1" },
		Round: func(any, int, []string) ([]string, bool) { return nil, true },
		Output: func(s any) string {
			if s.(bool) {
				return "1"
			}
			return "0"
		},
	}
}

// TestSplitLeavesLinearOnCycles pins the growth of the per-node walk
// (see splitLevel) on the Π1 accept-all game over one-bit certificates
// on C_n: a one-round node reads only its own certificate, so each of
// the n walks visits that node's 3 choices and nothing else, 3n leaves
// where the plain walk visits 3^n. The value is checked against
// Reference() while that engine finishes quickly, up to n = 12.
func TestSplitLeavesLinearOnCycles(t *testing.T) {
	t.Parallel()
	arb := &Arbiter{Machine: acceptor(), Level: Pi(1), RadiusID: 1}
	for n := 6; n <= 30; n++ {
		g := graph.Cycle(n)
		prep, err := simulate.Prepare(g, graph.SmallLocallyUnique(g, 1))
		if err != nil {
			t.Fatal(err)
		}
		domains := []cert.Domain{cert.UniformDomain(n, 1)}
		if n <= 12 {
			if ok, err := arb.GameValueEngine(prep, domains, Reference()); err != nil || !ok {
				t.Fatalf("C%d reference: (%v, %v), want (true, nil)", n, ok, err)
			}
		}
		for _, o := range []search.Options{search.Sequential(), search.Parallel(2)} {
			c := new(Counters)
			ok, err := arb.GameValueEngine(prep, domains, Engine{Opts: o, Counters: c})
			if err != nil || !ok {
				t.Fatalf("C%d under %+v: (%v, %v), want (true, nil)", n, o, ok, err)
			}
			if got := c.Leaves.Load(); got != int64(3*n) {
				t.Errorf("C%d under %+v: %d leaves, want 3n = %d", n, o, got, 3*n)
			}
		}
	}
}

// TestSplitGeneratedPi1Games pins the split's work on 200 generated Π1
// games of gossip machines, whose halting rounds and verdicts depend on
// every certificate a node sees, drawn as in
// TestGeneratedGamesMatchReference (seed 19) but on 2 to 8 nodes. The
// plain walk visits the reference engine's 41813 leaves, since an
// innermost ∀ backjumps only past rejects, which end it. The split
// visits 16063: a node that halts early is walked over a small ball,
// and a game where some ball holds every node falls back to the plain
// walk. Every value must equal Reference().
func TestSplitGeneratedPi1Games(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(19))
	var refLeaves, splitLeaves int64
	for i := 0; i < 200; i++ {
		name, g := generatedGraph(rng, 2+rng.Intn(7))
		arb := &Arbiter{Machine: gossip(1+rng.Intn(3), 1+rng.Intn(8)), Level: Pi(1), RadiusID: 1}
		id := graph.GloballyUnique(g)
		if rng.Intn(2) == 0 {
			id = graph.SmallLocallyUnique(g, 1)
		}
		prep, err := simulate.Prepare(g, id)
		if err != nil {
			t.Fatal(err)
		}
		domains := []cert.Domain{cert.UniformDomain(g.N(), 1)}
		ref := Reference()
		ref.Counters = new(Counters)
		want, err := arb.GameValueEngine(prep, domains, ref)
		if err != nil {
			t.Fatalf("%s %s reference: %v", name, arb.Machine.Name, err)
		}
		split := Engine{Opts: search.Sequential(), Counters: new(Counters)}
		for _, e := range []Engine{split, {Opts: search.Parallel(2)}} {
			if got, err := arb.GameValueEngine(prep, domains, e); err != nil || got != want {
				t.Errorf("%s %s under %+v: (%v, %v), reference %v", name, arb.Machine.Name, e.Opts, got, err, want)
			}
		}
		refLeaves += ref.Counters.Leaves.Load()
		splitLeaves += split.Counters.Leaves.Load()
	}
	if refLeaves != 41813 {
		t.Errorf("the reference engine visited %d leaves, want 41813: the generated games changed", refLeaves)
	}
	if splitLeaves > 16063 {
		t.Errorf("the split visited %d leaves, want at most 16063", splitLeaves)
	}
}

// echoZero is a two-round machine that rejects at a node iff some
// neighbour's certificate is "0": its ball B(u, 1) is its closed
// neighbourhood, the whole graph on a complete graph.
func echoZero() *simulate.Machine {
	type st struct {
		cert string
		ok   bool
		out  []string
	}
	return &simulate.Machine{
		Name: "test:echo-zero",
		Init: func(in simulate.Input) any { return &st{cert: in.Certs[0], ok: true, out: make([]string, in.Degree)} },
		Round: func(state any, round int, recv []string) ([]string, bool) {
			s := state.(*st)
			if round == 1 {
				for j := range s.out {
					s.out[j] = s.cert
				}
				return s.out, false
			}
			for _, m := range recv {
				s.ok = s.ok && m != "0"
			}
			return nil, true
		},
		Output: func(state any) string {
			if state.(*st).ok {
				return "1"
			}
			return "0"
		},
	}
}

// TestSplitStopsAndFallsBack plays Π1 games on 64 nodes:
//   - accept-all on C64 holds, and every node's walk visits its own 3
//     choices, 192 leaves;
//   - on C64 with nodes 40 and up rejecting a "1", some walk finds a
//     counterexample;
//   - echoZero on K64 gives node 0 a ball of every node on its first
//     leaf, so the split falls back to the plain walk, whose second
//     leaf is a counterexample;
//   - a cancelled context ends the game with its error.
//
// The false values are those of Reference(), which reaches its first
// counterexample within three leaves.
func TestSplitStopsAndFallsBack(t *testing.T) {
	t.Parallel()
	prepare := func(g *graph.Graph) *simulate.Prepared {
		prep, err := simulate.Prepare(g, graph.GloballyUnique(g))
		if err != nil {
			t.Fatal(err)
		}
		return prep
	}
	c64, k64 := prepare(graph.Cycle(64)), prepare(graph.Complete(64))
	lateReject := &simulate.Machine{
		Name:  "test:late-reject",
		Init:  func(in simulate.Input) any { return in.Node < 40 || in.Certs[0] != "1" },
		Round: func(any, int, []string) ([]string, bool) { return nil, true },
		Output: func(s any) string {
			if s.(bool) {
				return "1"
			}
			return "0"
		},
	}
	domains := []cert.Domain{cert.UniformDomain(64, 1)}
	c := new(Counters)
	arb := &Arbiter{Machine: acceptor(), Level: Pi(1), RadiusID: 1}
	if ok, err := arb.GameValueEngine(c64, domains, Engine{Opts: search.Sequential(), Counters: c}); err != nil || !ok {
		t.Errorf("accept-all on C64: (%v, %v), want (true, nil)", ok, err)
	}
	if c.Leaves.Load() != 3*64 {
		t.Errorf("accept-all on C64: %d leaves, want 192", c.Leaves.Load())
	}
	for _, game := range []struct {
		m    *simulate.Machine
		prep *simulate.Prepared
	}{{lateReject, c64}, {echoZero(), k64}} {
		arb := &Arbiter{Machine: game.m, Level: Pi(1), RadiusID: 1}
		name := fmt.Sprintf("%s on %d nodes", game.m.Name, game.prep.Graph().N())
		if want, err := arb.GameValueEngine(game.prep, domains, Reference()); err != nil || want {
			t.Fatalf("%s, reference: (%v, %v), want (false, nil)", name, want, err)
		}
		if ok, err := arb.GameValueEngine(game.prep, domains, Engine{Opts: search.Sequential()}); err != nil || ok {
			t.Errorf("%s: (%v, %v), want (false, nil)", name, ok, err)
		}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	o := search.Sequential()
	o.Ctx = cancelled
	if _, err := arb.GameValueEngine(c64, domains, Engine{Opts: o}); !errors.Is(err, context.Canceled) {
		t.Errorf("accept-all on C64 under a cancelled context: %v, want context.Canceled", err)
	}
}

// TestSplitSkipsSmallLevels plays Π1 accept-all on C_n with empty
// certificates only, a level of one choice: each node's walk would
// visit a leaf of its own, so the level is walked whole, in 1 leaf.
func TestSplitSkipsSmallLevels(t *testing.T) {
	t.Parallel()
	arb := &Arbiter{Machine: acceptor(), Level: Pi(1), RadiusID: 1}
	for _, n := range []int{3, 9, 40} {
		g := graph.Cycle(n)
		prep, err := simulate.Prepare(g, graph.GloballyUnique(g))
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []search.Options{search.Sequential(), search.Parallel(2)} {
			c := new(Counters)
			ok, err := arb.GameValueEngine(prep, []cert.Domain{cert.UniformDomain(n, 0)}, Engine{Opts: o, Counters: c})
			if err != nil || !ok {
				t.Fatalf("C%d under %+v: (%v, %v), want (true, nil)", n, o, ok, err)
			}
			if got := c.Leaves.Load(); got != 1 {
				t.Errorf("C%d under %+v: %d leaves, want 1", n, o, got)
			}
		}
	}
}

// TestSplitUnderOuterExists pins the split below an outer ∃: a Σ2 game
// on C6 with period-3 identifiers, where κ2 = "1" anywhere rejects, so
// Adam refutes each of Eve's 3^6 = 729 outer choices and the game is
// false with the outer level run to exhaustion. Below each outer
// choice, Adam's innermost ∀ is walked per node (see splitLevel), and
// node 0's walk meets its counterexample on its third leaf: 3 leaves
// per outer choice. Incremental leaves restart fewer than n nodes per
// leaf on average, since consecutive leaves mostly differ in one
// certificate.
func TestSplitUnderOuterExists(t *testing.T) {
	t.Parallel()
	g := graph.Cycle(6)
	prep, err := simulate.Prepare(g, graph.IDAssignment{"0", "1", "10", "0", "1", "10"})
	if err != nil {
		t.Fatal(err)
	}
	domains := []cert.Domain{cert.UniformDomain(6, 1), cert.UniformDomain(6, 1)}
	c := new(Counters)
	arb := &Arbiter{Machine: rejectsOne(), Level: Sigma(2), RadiusID: 1}
	ok, err := arb.GameValueEngine(prep, domains, Engine{Opts: search.Sequential(), Counters: c})
	if err != nil || ok {
		t.Fatalf("Σ2 game Adam refutes: (%v, %v), want (false, nil)", ok, err)
	}
	leaves, runs := c.Leaves.Load(), c.NodeRuns.Load()
	if leaves != 3*729 {
		t.Errorf("%d leaves, want 3 for each of 3^6 = 729 outer choices", leaves)
	}
	if runs >= leaves*int64(g.N()) {
		t.Errorf("%d leaves started %d nodes, want fewer than leaves × n = %d", leaves, runs, leaves*int64(g.N()))
	}
}

// TestLeafErrorSurfaces plays games whose machine never halts at node 0
// when that node's last certificate is "1", so some leaf of every game
// errors: a Π1 game, whose innermost ∀ is walked per node, and a Σ2
// game, whose outer ∃ is walked plainly (and fanned out under a pool),
// on C4 and C9. Every engine must return simulate.ErrDidNotTerminate,
// and a second call on the same memo must error again, since errors
// are never stored.
func TestLeafErrorSurfaces(t *testing.T) {
	t.Parallel()
	stall := &simulate.Machine{
		Name:   "test:stalls-on-one",
		Init:   func(in simulate.Input) any { return in.Node == 0 && in.Certs[len(in.Certs)-1] == "1" },
		Round:  func(s any, _ int, _ []string) ([]string, bool) { return nil, !s.(bool) },
		Output: func(any) string { return "1" },
	}
	memo := Engine{Opts: search.Parallel(2), Memo: NewMemo(0)}
	engines := map[string]Engine{
		"reference":        Reference(),
		"sequential":       {Opts: search.Sequential()},
		"Parallel(2)":      {Opts: search.Parallel(2)},
		"Parallel(2) memo": memo,
	}
	for _, n := range []int{4, 9} {
		g := graph.Cycle(n)
		prep, err := simulate.Prepare(g, graph.GloballyUnique(g))
		if err != nil {
			t.Fatal(err)
		}
		d := cert.UniformDomain(n, 1)
		for _, level := range []Level{Pi(1), Sigma(2)} {
			arb := &Arbiter{Machine: stall, Level: level, RadiusID: 1}
			domains := []cert.Domain{d, d}[:level.Alternations]
			for name, e := range engines {
				calls := 1
				if e.Memo != nil {
					calls = 2
				}
				for call := 1; call <= calls; call++ {
					if _, err := arb.GameValueEngine(prep, domains, e); !errors.Is(err, simulate.ErrDidNotTerminate) {
						t.Errorf("%v on C%d, %s, call %d: %v, want ErrDidNotTerminate", level, n, name, call, err)
					}
				}
			}
		}
	}
	if st := memo.Memo.Stats(); st.Hits != 0 {
		t.Errorf("memo answered %d calls from a stored entry, want none: errors are never stored", st.Hits)
	}
}
