package core

import (
	"sync"
	"testing"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/simulate"
)

// recordingMatcher accepts at a node iff its inner certificate equals
// its outer certificate, and records every (node, outer, inner) triple
// it is ever shown. The record is the detector: each sequential
// context's buffers (its own rows of the move vector and its
// leafScratch certificate lists) are reused across choices, so
// a stale assignment-prefix byte surviving a reuse would surface here
// as a triple the lexicographic enumeration never generates — or as a
// missing one. Incremental leaves start a node only when its
// certificates changed, but every context's first leaf starts them
// all, so the record is still every triple of every leaf.
func recordingMatcher(rec *sync.Map) *simulate.Machine {
	return &simulate.Machine{
		Name: "test:recording-matcher",
		Init: func(in simulate.Input) any {
			rec.Store(in.ID+"|"+in.Certs[0]+"|"+in.Certs[1], true)
			return in.Certs[1] == in.Certs[0]
		},
		Round: func(any, int, []string) ([]string, bool) { return nil, true },
		Output: func(state any) string {
			if state.(bool) {
				return "1"
			}
			return "0"
		},
	}
}

// TestPooledLeafPrefixIsolation is the -race regression test for the
// pooled leaf buffers: a Π2 (∀κ1 ∃κ2) game whose inner search succeeds
// only at κ2 = κ1 forces the outer universal level to fan out across
// workers while every worker's inner level walks a deterministic
// lexicographic prefix of the domain. Because the outer ∀ succeeds, the
// set of leaves evaluated is scheduling-independent, so the parallel
// pooled run must observe exactly the (node, outer, inner) triples and
// visit exactly the leaves of the sequential pooled run. Run under
// -race (make check does), this fails loudly if buffer reuse ever
// bleeds assignment-prefix bytes across workers or across choices.
func TestPooledLeafPrefixIsolation(t *testing.T) {
	t.Parallel()
	g := graph.Path(4)
	prep, err := simulate.Prepare(g, graph.GloballyUnique(g))
	if err != nil {
		t.Fatal(err)
	}
	domains := []cert.Domain{cert.UniformDomain(4, 1), cert.UniformDomain(4, 1)}
	run := func(eng Engine) (map[string]bool, int64) {
		var rec sync.Map
		eng.Counters = new(Counters)
		arb := &Arbiter{Machine: recordingMatcher(&rec), Level: Pi(2), RadiusID: 1}
		ok, err := arb.GameValueEngine(prep, domains, eng)
		if err != nil || !ok {
			t.Fatalf("∀κ1 ∃κ2=κ1 game: (%v, %v), want (true, nil)", ok, err)
		}
		seen := make(map[string]bool)
		rec.Range(func(k, _ any) bool {
			seen[k.(string)] = true
			return true
		})
		return seen, eng.Counters.Leaves.Load()
	}
	// NoSymmetry pins determinism explicitly (unique ids already admit no
	// automorphisms); pooling is on in both configurations — the engine
	// under test — and only the worker count differs.
	seqSeen, seqLeaves := run(Engine{Opts: search.Sequential(), NoSymmetry: true})
	parSeen, parLeaves := run(Engine{Opts: search.Parallel(4), NoSymmetry: true})
	if parLeaves != seqLeaves {
		t.Errorf("parallel pooled run visited %d leaves, sequential %d", parLeaves, seqLeaves)
	}
	if len(parSeen) != len(seqSeen) {
		t.Errorf("parallel observed %d distinct (node, outer, inner) triples, sequential %d", len(parSeen), len(seqSeen))
	}
	for k := range seqSeen {
		if !parSeen[k] {
			t.Errorf("triple %q seen sequentially but not in the parallel pooled run", k)
		}
	}
	for k := range parSeen {
		if !seqSeen[k] {
			t.Errorf("triple %q fabricated by the parallel pooled run", k)
		}
	}
}

// TestGameAllocsFlatInLeaves pins the buffer reuse of exhaustive games:
// a fan-out worker and the top-level call each make their buffers once,
// so with a machine that allocates nothing the allocation count of one
// evaluation depends on the worker count, not on how many leaves the
// game visits (3^4 and 3^6 here, all of them, since the Π1 game holds).
// Not parallel: AllocsPerRun counts the whole process's allocations.
func TestGameAllocsFlatInLeaves(t *testing.T) {
	accept := &simulate.Machine{
		Name:   "test:accept-no-alloc",
		Init:   func(in simulate.Input) any { return len(in.Certs) == 1 },
		Round:  func(any, int, []string) ([]string, bool) { return nil, true },
		Output: func(any) string { return "1" },
	}
	allocs := func(n int) float64 {
		g := graph.Path(n)
		prep, err := simulate.Prepare(g, graph.GloballyUnique(g))
		if err != nil {
			t.Fatal(err)
		}
		arb := &Arbiter{Machine: accept, Level: Pi(1), RadiusID: 1}
		domains := []cert.Domain{cert.UniformDomain(n, 1)}
		eng := Engine{Opts: search.Parallel(2)}
		return testing.AllocsPerRun(20, func() {
			if ok, err := arb.GameValueEngine(prep, domains, eng); err != nil || !ok {
				t.Fatalf("Π1 accept-all game on P%d: (%v, %v), want (true, nil)", n, ok, err)
			}
		})
	}
	small, large := allocs(4), allocs(6)
	if small != large {
		t.Fatalf("one evaluation allocates %v times over 81 leaves but %v times over 729", small, large)
	}
}

// neighbourMatcher is a two-round machine for the Π2 game ∀κ1 ∃κ2: a
// node sends κ1·κ2 to its neighbours in round 1 and accepts in round 2
// iff its own κ2 equals its κ1 and so does every neighbour's, so κ2 = κ1
// is the only winning reply and a certificate change travels one hop.
func neighbourMatcher() *simulate.Machine {
	matched := func(msg string) bool { return len(msg)%2 == 0 && msg[:len(msg)/2] == msg[len(msg)/2:] }
	type st struct {
		msg string
		ok  bool
	}
	return &simulate.Machine{
		Name: "test:neighbour-matcher",
		Init: func(in simulate.Input) any {
			return &st{msg: "<" + in.Certs[0] + "><" + in.Certs[1] + ">"}
		},
		Round: func(state any, round int, recv []string) ([]string, bool) {
			s := state.(*st)
			if round == 1 {
				out := make([]string, len(recv))
				for j := range out {
					out[j] = s.msg
				}
				return out, false
			}
			s.ok = matched(s.msg)
			for _, m := range recv {
				s.ok = s.ok && matched(m)
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

// TestNodeRunsDeterministic pins the property the benchmark's traced
// leaf check relies on: for a given engine configuration, the number of
// nodes an evaluation starts does not depend on scheduling. A fan-out
// worker drops its leaf trace at the start of every prefix it claims,
// so its work on a prefix is the same whichever prefixes it ran before.
// The outer ∀ of the game holds, so every evaluation visits the whole
// fanned-out level.
func TestNodeRunsDeterministic(t *testing.T) {
	t.Parallel()
	g := graph.Path(4)
	prep, err := simulate.Prepare(g, graph.GloballyUnique(g))
	if err != nil {
		t.Fatal(err)
	}
	arb := &Arbiter{Machine: neighbourMatcher(), Level: Pi(2), RadiusID: 1}
	domains := []cert.Domain{cert.UniformDomain(4, 1), cert.UniformDomain(4, 1)}
	for _, o := range []search.Options{
		search.Parallel(2),
		search.Parallel(4),
		{Workers: 2, SplitDepth: 2},
		{Workers: 4, SplitDepth: 2},
	} {
		var leaves, runs int64
		for i := 0; i < 20; i++ {
			c := new(Counters)
			ok, err := arb.GameValueEngine(prep, domains, Engine{Opts: o, Counters: c})
			if err != nil || !ok {
				t.Fatalf("%+v: ∀κ1 ∃κ2=κ1 game: (%v, %v), want (true, nil)", o, ok, err)
			}
			if i == 0 {
				leaves, runs = c.Leaves.Load(), c.NodeRuns.Load()
				if runs >= leaves*int64(g.N()) {
					t.Errorf("%+v: %d leaves started %d nodes, want fewer than leaves × n", o, leaves, runs)
				}
				continue
			}
			if c.Leaves.Load() != leaves || c.NodeRuns.Load() != runs {
				t.Fatalf("%+v, evaluation %d: %d leaves and %d node runs, the first had %d and %d",
					o, i, c.Leaves.Load(), c.NodeRuns.Load(), leaves, runs)
			}
		}
	}
}
