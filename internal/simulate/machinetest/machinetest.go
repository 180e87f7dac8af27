// Package machinetest checks, on generated inputs, the contracts a
// simulate.Machine declares. It is a test-only harness, like
// journaltest and routertest: a wrong declaration gives wrong game
// values without failing any run, so a declared contract is checked,
// not trusted.
//
// CheckBlame checks Machine.Blame. Whenever a node u rejects in round
// h ≥ 2 blaming the port of its neighbour w, it redraws the
// certificates, labels and identifiers of every node outside
// B(u, h−2) ∪ B(w, h−2) and demands that u still rejects.
package machinetest

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/graph"
	"repro/internal/simulate"
)

// Instance is one input of a machine: a labelled graph, its identifier
// assignment and the nodes' certificate lists.
type Instance struct {
	G     *graph.Graph
	ID    graph.IDAssignment
	Certs [][]string
}

// Node draws what one node holds: its certificate list (malformed
// ones included) and its label.
type Node func(rng *rand.Rand) (certs []string, label string)

// Run executes m on in through the reference engine and returns every
// node's final state and halting round with the result.
func Run(m *simulate.Machine, in Instance) (states []any, halts []int, res *simulate.Result, err error) {
	type node struct {
		u  int
		st any
	}
	n := in.G.N()
	states, halts = make([]any, n), make([]int, n)
	w := &simulate.Machine{
		Name: m.Name,
		Init: func(x simulate.Input) any {
			st := m.Init(x)
			states[x.Node] = st
			return &node{x.Node, st}
		},
		Round: func(sv any, round int, recv []string) ([]string, bool) {
			nd := sv.(*node)
			send, halt := m.Round(nd.st, round, recv)
			if halt {
				halts[nd.u] = round
			}
			return send, halt
		},
		Output: func(sv any) string { return m.Output(sv.(*node).st) },
	}
	res, err = simulate.Run(w, in.G, in.ID, in.Certs, simulate.Options{})
	return states, halts, res, err
}

// CheckBlame runs m on in and checks every blame it reports. A blame
// must be a port of the node or −1. For a node u that rejects in round
// h ≥ 2 blaming its neighbour w, tries runs redraw every node outside
// B(u, h−2) ∪ B(w, h−2): its certificates and label by node, and its
// identifier afresh, distinct from every identifier inside the region
// and from the other redrawn ones, so the assignment stays as unique
// as it was. u must reject in each. It returns how many blames it
// checked, so a caller can demand that its inputs produce some.
func CheckBlame(t testing.TB, m *simulate.Machine, in Instance, rng *rand.Rand, node Node, tries int) int {
	t.Helper()
	if m.Blame == nil {
		t.Fatalf("%s declares no Blame", m.Name)
	}
	states, halts, res, err := Run(m, in)
	if err != nil {
		t.Fatalf("%s: %v", m.Name, err)
	}
	checked := 0
	for u, out := range res.Outputs {
		if out == "1" || halts[u] < 2 {
			continue
		}
		ports := in.ID.SortByID(in.G.Neighbors(u))
		j := m.Blame(states[u])
		if j < -1 || j >= len(ports) {
			t.Fatalf("%s: node %d of %d blames port %d, want one of its %d ports or -1", m.Name, u, in.G.N(), j, len(ports))
		}
		if j < 0 {
			continue
		}
		h, w := halts[u], ports[j]
		du, dw := in.G.BFS(u), in.G.BFS(w)
		fixed := make([]bool, in.G.N())
		for v := range fixed {
			fixed[v] = du[v] <= h-2 || dw[v] <= h-2
		}
		for try := 0; try < tries; try++ {
			re := redraw(rng, in, fixed, node)
			_, _, got, err := Run(m, re)
			if err != nil {
				t.Fatalf("%s: redrawn run: %v", m.Name, err)
			}
			if got.Outputs[u] == "1" {
				t.Fatalf("%s on %d nodes, edges %v: node %d rejects in round %d blaming port %d (node %d), "+
					"but accepts once the nodes outside B(%d, %d) ∪ B(%d, %d) are redrawn:\n"+
					"labels %q → %q\nids %q → %q\ncerts %q → %q",
					m.Name, in.G.N(), in.G.Edges(), u, h, j, w, u, h-2, w, h-2,
					in.G.Labels(), re.G.Labels(), in.ID, re.ID, in.Certs, re.Certs)
			}
		}
		checked++
	}
	return checked
}

// redraw returns in with every node v outside the region (fixed[v]
// false) drawn afresh: certificates and label by node, and an
// identifier no other node of the result holds, unless in already
// repeated it.
func redraw(rng *rand.Rand, in Instance, fixed []bool, node Node) Instance {
	n := in.G.N()
	certs := slices.Clone(in.Certs)
	if certs == nil {
		certs = make([][]string, n)
	}
	labels := in.G.Labels()
	id := slices.Clone(in.ID)
	used := map[string]bool{}
	for v := range fixed {
		if fixed[v] {
			used[id[v]] = true
		}
	}
	for v := range fixed {
		if fixed[v] {
			continue
		}
		certs[v], labels[v] = node(rng)
		for {
			id[v] = strconv.FormatInt(int64(rng.Intn(4*n)), 2)
			if !used[id[v]] {
				break
			}
		}
		used[id[v]] = true
	}
	return Instance{G: in.G.MustWithLabels(labels), ID: id, Certs: certs}
}
