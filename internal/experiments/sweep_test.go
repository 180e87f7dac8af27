package experiments

import (
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/props"
	"repro/internal/reduce"
	"repro/internal/search"
)

// TestAllOptEngineParity is the sharded-sweep correctness contract: the
// whole experiment suite through the sweep engine produces row-for-row
// identical reports on the sequential engine and on a sharded pool
// (run under -race by make check).
func TestAllOptEngineParity(t *testing.T) {
	t.Parallel()
	seq := All(search.Sequential())
	par := All(search.Parallel(4))
	if len(seq) != len(par) {
		t.Fatalf("suite sizes differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].ID != par[i].ID {
			t.Fatalf("report %d: id %q vs %q", i, seq[i].ID, par[i].ID)
		}
		if !reflect.DeepEqual(seq[i].Rows, par[i].Rows) {
			t.Errorf("%s: rows diverge between engines:\nseq:\n%s\npar:\n%s",
				seq[i].ID, seq[i], par[i])
		}
		if !seq[i].OK() {
			t.Errorf("%s failed on the sequential engine:\n%s", seq[i].ID, seq[i])
		}
	}
}

// TestSweepFailuresParity checks the counting core on a synthetic work
// list: sharded == sequential, and the tick hook fires exactly once per
// instance.
func TestSweepFailuresParity(t *testing.T) {
	t.Parallel()
	s := Sweep{Len: 1000, Check: func(i int) bool { return i%7 != 0 }}
	want := 0
	for i := 0; i < 1000; i++ {
		if i%7 == 0 {
			want++
		}
	}
	var ticks atomic.Int64
	if got := s.Failures(search.Sequential(), nil); got != want {
		t.Fatalf("sequential failures %d, want %d", got, want)
	}
	if got := s.Failures(search.Parallel(8), func() { ticks.Add(1) }); got != want {
		t.Fatalf("sharded failures %d, want %d", got, want)
	}
	if ticks.Load() != 1000 {
		t.Fatalf("ticks %d, want 1000", ticks.Load())
	}
}

// TestLabelingSpace pins the flattened enumeration against the nested
// loops it replaced: bases outer, masks inner, lexicographic.
func TestLabelingSpace(t *testing.T) {
	t.Parallel()
	bases := []*graph.Graph{graph.Path(2), graph.Cycle(3)}
	n, instance := LabelingSpace(bases)
	if n != 4+8 {
		t.Fatalf("total %d, want 12", n)
	}
	i := 0
	for _, base := range bases {
		for mask := uint(0); mask < 1<<uint(base.N()); mask++ {
			want := base.MustWithLabels(graph.BitLabels(base.N(), mask))
			got := instance(i)
			if got.N() != want.N() {
				t.Fatalf("instance %d: %d nodes, want %d", i, got.N(), want.N())
			}
			for u := 0; u < want.N(); u++ {
				if got.Label(u) != want.Label(u) {
					t.Fatalf("instance %d node %d: label %q, want %q", i, u, got.Label(u), want.Label(u))
				}
			}
			i++
		}
	}
}

// TestSweepReductionMatchesHandRolledLoop pins SweepReduction's
// semantics against the literal sequential loop it replaced, on both
// engines.
func TestSweepReductionMatchesHandRolledLoop(t *testing.T) {
	t.Parallel()
	red := reduce.AllSelectedToEulerian()
	bases := []*graph.Graph{graph.Path(3), graph.Cycle(4)}
	want := 0
	for _, base := range bases {
		for mask := uint(0); mask < 1<<uint(base.N()); mask++ {
			g := base.MustWithLabels(graph.BitLabels(base.N(), mask))
			res, err := red.Apply(g, nil)
			if err != nil || res.Validate(g) != nil || props.AllSelected(g) != props.Eulerian(res.Out) {
				want++
			}
		}
	}
	for _, o := range []search.Options{search.Sequential(), search.Parallel(4)} {
		if got := SweepReduction(red, nil, props.AllSelected, props.Eulerian, bases, o); got != want {
			t.Fatalf("workers=%d: %d mismatches, want %d", o.Workers, got, want)
		}
	}
}

// TestIndexResolvesEveryID: every spec is findable by slug and ids are
// unique.
func TestIndexResolvesEveryID(t *testing.T) {
	t.Parallel()
	seen := map[string]bool{}
	for _, s := range Index() {
		if seen[s.ID] {
			t.Fatalf("duplicate spec id %q", s.ID)
		}
		seen[s.ID] = true
		got, ok := FindSpec(s.ID)
		if !ok || got.Title != s.Title {
			t.Fatalf("FindSpec(%q) = %+v, %v", s.ID, got, ok)
		}
	}
	if _, ok := FindSpec("nope"); ok {
		t.Fatal("FindSpec accepted a bogus id")
	}
}
