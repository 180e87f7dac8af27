package simulate

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/graph"
)

// TestBallSizesMatchBFS checks BallOrder against graph.BFS on
// generated paths, cycles, stars and random connected graphs: dist
// holds the BFS distances, order lists every node once with distances
// never decreasing, and so, for every radius, the nodes before the
// first one farther than it are exactly the ball BFS counts.
func TestBallSizesMatchBFS(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	var graphs []*graph.Graph
	for n := 1; n <= 9; n++ {
		graphs = append(graphs, graph.Path(n), graph.Star(n), graph.RandomConnected(n, 0.3, rng))
		if n >= 3 {
			graphs = append(graphs, graph.Cycle(n))
		}
	}
	for i := 0; i < 20; i++ {
		graphs = append(graphs, graph.RandomConnected(10+rng.Intn(20), 0.15, rng))
	}
	for _, g := range graphs {
		name := fmt.Sprintf("%d nodes, %d edges", g.N(), g.NumEdges())
		prep, err := Prepare(g, graph.GloballyUnique(g))
		if err != nil {
			t.Fatal(err)
		}
		n, d := g.N(), g.Diameter()
		order, dist := make([]int32, n), make([]int32, n)
		for u := 0; u < n; u++ {
			bfs := g.BFS(u)
			prep.BallOrder(u, order, dist)
			for v, d := range bfs {
				if int(dist[v]) != d {
					t.Fatalf("%s: node %d is at distance %d from %d, BallOrder says %d", name, v, d, u, dist[v])
				}
			}
			seen := make([]bool, n)
			for p, v := range order {
				if seen[v] {
					t.Fatalf("%s: node %d's ball order %v repeats %d", name, u, order, v)
				}
				seen[v] = true
				if p > 0 && dist[order[p-1]] > dist[v] {
					t.Fatalf("%s: node %d's ball order %v is not by distance", name, u, order)
				}
			}
			for r := 0; r <= d+1; r++ {
				size := 0
				for _, d := range bfs {
					if d <= r {
						size++
					}
				}
				prefix := 0
				for prefix < n && int(dist[order[prefix]]) <= r {
					prefix++
				}
				if prefix != size {
					t.Fatalf("%s: B(%d, %d) is a prefix of %d nodes of the ball order, BFS counts %d", name, u, r, prefix, size)
				}
			}
		}
	}
}

// haltReporter halts in a round drawn from the certificates within
// distance 2 of a node (1..3) and outputs that round, so Prepared.Run
// reports every node's halting round.
func haltReporter() *Machine {
	type st struct {
		sum, halt int
		cert      string
		out       []string
	}
	return &Machine{
		Name: "test:halt-reporter",
		Init: func(in Input) any {
			return &st{sum: strings.Count(in.Certs[0], "1"), cert: in.Certs[0], out: make([]string, in.Degree)}
		},
		Round: func(state any, round int, recv []string) ([]string, bool) {
			s := state.(*st)
			for _, m := range recv {
				s.sum += strings.Count(m, "1")
			}
			for j := range s.out {
				s.out[j] = s.cert + strconv.Itoa(s.sum%2)
			}
			if round >= 1+s.sum%3 {
				s.halt = round
				return nil, true
			}
			return s.out, false
		},
		Output: func(state any) string { return strconv.Itoa(state.(*st).halt) },
	}
}

// TestHaltMatchesRun drives one Scratch through runs on random
// certificates and checks Halt against the halting rounds Prepared.Run
// reports, after incremental runs and after dense ones: on the complete
// graph and the star every run of two rounds or more reaches the
// diameter, so the next run is dense.
func TestHaltMatchesRun(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	m := haltReporter()
	for _, g := range []*graph.Graph{graph.Complete(4), graph.Star(5), graph.Path(6), graph.Cycle(7)} {
		prep, err := Prepare(g, graph.GloballyUnique(g))
		if err != nil {
			t.Fatal(err)
		}
		sc := prep.NewScratch()
		for run := 0; run < 200; run++ {
			certs := make([][]string, g.N())
			for u := range certs {
				certs[u] = []string{[]string{"", "0", "1", "11"}[rng.Intn(4)]}
			}
			if _, err := prep.RunAccepted(m, certs, 0, sc); err != nil {
				t.Fatal(err)
			}
			res, err := prep.Run(m, certs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for u, out := range res.Outputs {
				if want, _ := strconv.Atoi(out); sc.Halt(u) != want {
					t.Fatalf("%d nodes, run %d: node %d halted in round %d, Halt says %d", g.N(), run, u, want, sc.Halt(u))
				}
			}
		}
	}
}
