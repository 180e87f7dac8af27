package core

import (
	"sync"
	"sync/atomic"
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
// missing one.
func recordingMatcher(rec *sync.Map, inits *atomic.Int64) *simulate.Machine {
	return &simulate.Machine{
		Name: "test:recording-matcher",
		Init: func(in simulate.Input) any {
			inits.Add(1)
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
// exactly the leaf count of the sequential pooled run. Run under
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
		var inits atomic.Int64
		arb := &Arbiter{Machine: recordingMatcher(&rec, &inits), Level: Pi(2), RadiusID: 1}
		ok, err := arb.GameValueEngine(prep, domains, eng)
		if err != nil || !ok {
			t.Fatalf("∀κ1 ∃κ2=κ1 game: (%v, %v), want (true, nil)", ok, err)
		}
		seen := make(map[string]bool)
		rec.Range(func(k, _ any) bool {
			seen[k.(string)] = true
			return true
		})
		return seen, inits.Load()
	}
	// NoSymmetry pins determinism explicitly (unique ids already admit no
	// automorphisms); pooling is on in both configurations — the engine
	// under test — and only the worker count differs.
	seqSeen, seqInits := run(Engine{Opts: search.Sequential(), NoSymmetry: true})
	parSeen, parInits := run(Engine{Opts: search.Parallel(4), NoSymmetry: true})
	if parInits != seqInits {
		t.Errorf("parallel pooled run executed %d node inits, sequential %d", parInits, seqInits)
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
