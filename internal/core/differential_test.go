package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"

	"repro/internal/graph"
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
