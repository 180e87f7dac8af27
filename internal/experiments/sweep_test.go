package experiments

import (
	"context"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/graph"
	"repro/internal/props"
	"repro/internal/reduce"
	"repro/internal/search"
)

// TestEngineParity: figure1 and figure2 are the experiments that hand
// their options to a parallel search, so they are the ones whose rows
// could depend on the engine. Both engines must give equal rows, and
// the sequential report must pass.
func TestEngineParity(t *testing.T) {
	t.Parallel()
	for _, id := range []string{"figure1", "figure2"} {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			spec, ok := FindSpec(id)
			if !ok {
				t.Fatalf("unknown experiment %q", id)
			}
			seq := spec.Run(search.Sequential())
			par := spec.Run(search.Parallel(4))
			if !seq.OK() {
				t.Fatalf("sequential report not OK:\n%s", seq)
			}
			if !reflect.DeepEqual(seq.Rows, par.Rows) {
				t.Fatalf("rows diverge between engines:\nseq:\n%s\npar:\n%s", seq, par)
			}
		})
	}
}

// TestCancelledSweepFailsClosed runs every experiment with an instance
// sweep on a context that is already cancelled: no report may pass, and
// every sweep row (the rows expecting 0 failures) must count all of
// its instances as failed.
func TestCancelledSweepFailsClosed(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := search.Options{Workers: 1, Ctx: ctx}
	for _, tt := range []struct {
		id        string
		instances []int // per sweep row, in report order
	}{
		{"figure3", []int{8 + 16 + 16}},
		{"figure7", []int{5, 4, 4, 8 + 16, 8 + 16, 4, 4, 4}},
		{"figure8", []int{8 + 16 + 16}},
		{"figure9", []int{2 + 16 + 16 + 16}},
		{"figure11", []int{2 + 4}},
	} {
		spec, ok := FindSpec(tt.id)
		if !ok {
			t.Fatalf("unknown experiment %q", tt.id)
		}
		rep := spec.Run(o)
		if rep.OK() {
			t.Errorf("%s: cancelled sweep reads OK:\n%s", tt.id, rep)
		}
		var got []int
		for _, r := range rep.Rows {
			if r.Expected == "0" {
				n, err := strconv.Atoi(r.Measured)
				if err != nil {
					t.Fatalf("%s: row %q measured %q", tt.id, r.Name, r.Measured)
				}
				got = append(got, n)
			}
		}
		if !reflect.DeepEqual(got, tt.instances) {
			t.Errorf("%s: sweep rows measured %v, want every instance failed %v", tt.id, got, tt.instances)
		}
	}
}

// TestSweepFailuresParity checks failures against a literal count, and
// that a cancel partway through counts every unchecked graph as failed.
func TestSweepFailuresParity(t *testing.T) {
	t.Parallel()
	gs := labelings([]*graph.Graph{graph.Path(3), graph.Cycle(4)})
	allSel := props.AllSelected
	want := 0
	for _, g := range gs {
		if !allSel(g) {
			want++
		}
	}
	if got := failures(search.Sequential(), gs, allSel); got != want {
		t.Fatalf("failures %d, want %d", got, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const stop = 5
	checked := 0
	got := failures(search.Options{Workers: 1, Ctx: ctx}, gs, func(*graph.Graph) bool {
		checked++
		if checked == stop {
			cancel()
		}
		return true
	})
	if checked != stop || got != len(gs)-stop {
		t.Fatalf("cancel after %d checks: checked %d, failures %d, want %d", stop, checked, got, len(gs)-stop)
	}
}

// TestSweepReductionMatchesHandRolledLoop pins reductionFailures'
// semantics against the literal loop over labelings.
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
	if got := reductionFailures(red, props.AllSelected, props.Eulerian, bases, search.Sequential()); got != want {
		t.Fatalf("%d mismatches, want %d", got, want)
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
