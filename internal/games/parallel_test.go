package games

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/search"
)

// parityGraphs are the instances every game is evaluated on, sized so
// the full exhaustive evaluation stays fast under the race detector.
func parityGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"C4 selected": graph.Cycle(4).MustWithLabels(graph.AllSelectedLabels(4)),
		"C5 one hole": graph.Cycle(5).MustWithLabels([]string{"1", "1", "0", "1", "1"}),
		"P3 one sel":  graph.Path(3).MustWithLabels([]string{"0", "1", "0"}),
		"K4":          graph.Complete(4),
		"Figure 1a":   graph.Figure1NoInstance(),
		"Figure 1b":   graph.Figure1YesInstance(),
	}
}

// TestParallelGamesMatchSequential asserts, for every game of the
// package on every parity instance, that the parallel engine computes
// the same value as the strictly sequential one. Running it under
// -race additionally checks the engine's worker pool for data races.
func TestParallelGamesMatchSequential(t *testing.T) {
	seq := search.Sequential()
	par := search.Parallel(0)
	games := map[string]func(*graph.Graph, search.Options) bool{
		"PointsTo[unselected]": func(g *graph.Graph, o search.Options) bool {
			return EveWinsPointsTo(g, IsUnselected, o)
		},
		"PointsTo[selected]": func(g *graph.Graph, o search.Options) bool {
			return EveWinsPointsTo(g, IsSelected, o)
		},
		"PointsToUnique[selected]": func(g *graph.Graph, o search.Options) bool {
			return EveWinsPointsToUnique(g, IsSelected, o)
		},
		"Hamiltonian": EveWinsHamiltonian,
	}
	for gname, g := range parityGraphs() {
		for name, game := range games {
			want := game(g, seq)
			if got := game(g, par); got != want {
				t.Errorf("%s on %s: parallel=%v sequential=%v", name, gname, got, want)
			}
		}
	}
}

// TestParallelNonKColorableMatchesSequential covers the Example 7
// complementation game, whose (2^k)^n outer space limits it to the
// smallest instances.
func TestParallelNonKColorableMatchesSequential(t *testing.T) {
	for gname, g := range map[string]*graph.Graph{
		"P2": graph.Path(2),
		"C3": graph.Cycle(3),
	} {
		for _, k := range []int{2, 3} {
			want := EveWinsNonKColorable(g, k, search.Sequential())
			if got := EveWinsNonKColorable(g, k, search.Parallel(0)); got != want {
				t.Errorf("NonKColorable(k=%d) on %s: parallel=%v sequential=%v", k, gname, got, want)
			}
			colorable := k >= 3 || gname == "P2"
			if want != !colorable {
				t.Errorf("NonKColorable(k=%d) on %s: got %v, expected %v", k, gname, want, !colorable)
			}
		}
	}
}

// TestForEachParentsOrderUnchanged pins the enumeration order of the
// sequential yield API (self first, then neighbors ascending) that the
// search-engine rewiring must preserve.
func TestForEachParentsOrderUnchanged(t *testing.T) {
	g := graph.Path(2)
	var got []Parents
	ForEachParents(g, func(p Parents) bool {
		got = append(got, append(Parents(nil), p...))
		return true
	})
	// Lexicographic with choice 0 = root: node 0's choices are (0, then
	// neighbor 1); node 1's are (1, then neighbor 0).
	want := []Parents{{0, 1}, {0, 0}, {1, 1}, {1, 0}}
	if len(got) != len(want) {
		t.Fatalf("enumerated %d assignments, want %d", len(got), len(want))
	}
	for i := range want {
		for u := range want[i] {
			if got[i][u] != want[i][u] {
				t.Fatalf("assignment %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
}
