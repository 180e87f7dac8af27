package core

import (
	"testing"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/simulate"
)

// acceptor accepts everywhere in one round. All-accepting keeps a
// universal game from early-exiting, so the leaves it visits are the
// whole enumeration.
func acceptor() *simulate.Machine {
	return &simulate.Machine{
		Name:   "test:acceptor",
		Init:   func(simulate.Input) any { return nil },
		Round:  func(any, int, []string) ([]string, bool) { return nil, true },
		Output: func(any) string { return "1" },
	}
}

// TestSymmetryPrunes demonstrates the pruning layer actually skipping
// work on an instance with usable symmetry: C6 with period-3
// identifiers admits exactly the rotation by 3, so of the 3^6 = 729
// outer choice vectors only the 27 rotation-fixed ones lack a partner
// and enumeration shrinks to (729+27)/2 = 378 leaves. The engine's
// counters tally the leaves; incremental leaves restart fewer than n
// nodes per leaf on average, since consecutive leaves mostly differ in
// one certificate.
func TestSymmetryPrunes(t *testing.T) {
	t.Parallel()
	g := graph.Cycle(6)
	id := graph.IDAssignment{"0", "1", "10", "0", "1", "10"}
	prep, err := simulate.Prepare(g, id)
	if err != nil {
		t.Fatal(err)
	}
	domains := []cert.Domain{cert.UniformDomain(6, 1)}
	leaves := func(eng Engine) int64 {
		eng.Counters = new(Counters)
		arb := &Arbiter{Machine: acceptor(), Level: Pi(1), RadiusID: 1}
		ok, err := arb.GameValueEngine(prep, domains, eng)
		if err != nil || !ok {
			t.Fatalf("all-accepting Π1 game: (%v, %v), want (true, nil)", ok, err)
		}
		l, runs := eng.Counters.Leaves.Load(), eng.Counters.NodeRuns.Load()
		if runs >= l*int64(g.N()) {
			t.Errorf("%d leaves started %d nodes, want fewer than leaves × n = %d", l, runs, l*int64(g.N()))
		}
		return l
	}
	full := leaves(Engine{Opts: search.Sequential(), NoSymmetry: true})
	pruned := leaves(Engine{Opts: search.Sequential()})
	if full != 729 {
		t.Fatalf("unpruned enumeration ran %d leaves, want 3^6 = 729", full)
	}
	if pruned != 378 {
		t.Fatalf("pruned enumeration ran %d leaves, want 378 orbit representatives", pruned)
	}
}

// TestSymmetryRequiresDistinctNeighborIDs: on C4 with period-2
// identifiers both neighbors of every node carry the same id, so the
// engine's neighbor order falls back to node indices — which
// automorphisms do not preserve — and initSymmetry must refuse to
// collect anything.
func TestSymmetryRequiresDistinctNeighborIDs(t *testing.T) {
	t.Parallel()
	g := graph.Cycle(4)
	prep, err := simulate.Prepare(g, graph.IDAssignment{"0", "1", "0", "1"})
	if err != nil {
		t.Fatal(err)
	}
	arb := &Arbiter{Machine: acceptor(), Level: Pi(1), RadiusID: 1}
	ev := newGameEval(arb, prep, []cert.Domain{cert.UniformDomain(4, 1)}, Engine{Opts: search.Sequential()}, false)
	if len(ev.auts) != 0 || len(ev.autInv) != 0 {
		t.Fatalf("ambiguous neighborhood ids still collected %d automorphisms", len(ev.auts))
	}
	// C6 with period-3 ids keeps every neighborhood unambiguous and admits
	// the rotation by 3, so the guard above — not a lack of usable
	// symmetry — is what disabled pruning on the C4 instance.
	g6 := graph.Cycle(6)
	prep2, err := simulate.Prepare(g6, graph.IDAssignment{"0", "1", "10", "0", "1", "10"})
	if err != nil {
		t.Fatal(err)
	}
	ev2 := newGameEval(arb, prep2, []cert.Domain{cert.UniformDomain(6, 1)}, Engine{Opts: search.Sequential()}, false)
	if len(ev2.auts) == 0 {
		t.Fatal("period-3 C6 collected no automorphisms")
	}
}

// TestSymmetryNeverPrunesStrategyGames: strategies observe node indices
// directly, so permuting certificates under them is unsound and the
// strategic evaluator must not collect automorphisms even on a
// fully symmetric instance.
func TestSymmetryNeverPrunesStrategyGames(t *testing.T) {
	t.Parallel()
	g := graph.Cycle(4)
	prep, err := simulate.Prepare(g, graph.GloballyUnique(g))
	if err != nil {
		t.Fatal(err)
	}
	arb := &Arbiter{Machine: acceptor(), Level: Pi(1), RadiusID: 1}
	ev := newGameEval(arb, prep, []cert.Domain{cert.UniformDomain(4, 1)}, Engine{Opts: search.Sequential()}, true)
	if len(ev.auts) != 0 {
		t.Fatalf("strategic evaluation collected %d automorphisms, want 0", len(ev.auts))
	}
}
