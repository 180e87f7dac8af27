package games

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arbiters"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/simulate"
	"repro/internal/simulate/machinetest"
)

// TestCatalogBlameContract checks simulate.Machine.Blame on every
// catalog machine that declares one, and on default-combine products
// of them: on generated graphs under Eve's strategies, with
// certificates redrawn from garbage, every node that rejects in round
// h ≥ 2 blaming its neighbour w must still reject once the
// certificates, labels and identifiers outside B(u, h−2) ∪ B(w, h−2)
// are redrawn (machinetest.CheckBlame). Every case must produce
// blames. A catalog machine with no case here must declare no Blame,
// so none goes unchecked.
func TestCatalogBlameContract(t *testing.T) {
	t.Parallel()
	type blameCase struct {
		m     *simulate.Machine
		graph func(*rand.Rand, int) *graph.Graph
		label func(*rand.Rand) string
		moves []core.Strategy // nil: Adam's random challenge bits
	}
	bit := func(rng *rand.Rand) string { return []string{"0", "1"}[rng.Intn(2)] }
	// colors(w) plays every node a random string of w bits, a color or
	// out of range, and now and then one of another width.
	colorRNG := rand.New(rand.NewSource(36))
	colors := func(w int) core.Strategy {
		return func(g *graph.Graph, _ graph.IDAssignment, _ []cert.Assignment) (cert.Assignment, error) {
			k := make(cert.Assignment, g.N())
			for u := range k {
				width := w
				if colorRNG.Intn(6) == 0 {
					width = colorRNG.Intn(4)
				}
				k[u] = fmt.Sprintf("%0*b", width, colorRNG.Intn(1<<width))[:width]
			}
			return k, nil
		}
	}
	var cases []blameCase
	for k := 1; k <= 6; k++ {
		cases = append(cases, blameCase{arbiters.KColorable(k), bits, bit, []core.Strategy{colors(len(fmt.Sprintf("%b", k-1)))}})
	}
	cases = append(cases,
		blameCase{arbiters.SatGraph(), boolean, formulaLabel, []core.Strategy{arbiters.SatGraphStrategy()}},
		blameCase{NotAllSelectedArbiter().Machine, bits, bit, []core.Strategy{ForestStrategy(IsUnselected), nil, ChargeStrategy(nil)}},
		blameCase{OneSelectedArbiter().Machine, bits, bit, []core.Strategy{ForestStrategy(IsSelected), nil, ChargeStrategy(IsSelected)}},
		blameCase{NonTwoColorableArbiter().Machine, bits, bit, []core.Strategy{NonTwoColorableStrategy(), nil, NonTwoColorChargeStrategy()}},
		blameCase{AcyclicArbiter().Machine, bits, bit, []core.Strategy{AcyclicStrategy(), nil, RootChargeStrategy()}},
		blameCase{OddArbiter().Machine, bits, bit, []core.Strategy{OddStrategy(), nil, oddChargeStrategy()}},
		blameCase{HamiltonianArbiter().Machine, bits, bit, []core.Strategy{HamiltonianStrategy(), nil, RootChargeStrategy()}},
		blameCase{core.Product("3-colorable×4-colorable", nil, arbiters.KColorable(3), arbiters.KColorable(4)), bits, bit,
			[]core.Strategy{colors(2)}},
		blameCase{core.WithPrecondition(arbiters.KColorable(4), arbiters.AllEqual()), bits, bit,
			[]core.Strategy{colors(2)}},
	)
	checked := map[string]bool{}
	for _, c := range cases {
		checked[c.m.Name] = true
		rng := rand.New(rand.NewSource(35))
		// A redrawn node gets a list of garbage certificates, one per
		// move (now and then one more or one fewer), and a label.
		node := func(rng *rand.Rand) ([]string, string) {
			certs := make([]string, max(0, len(c.moves)+rng.Intn(3)-1))
			for i := range certs {
				certs[i] = garbage[rng.Intn(len(garbage))]
			}
			return certs, c.label(rng)
		}
		blames := 0
		for trial := 0; trial < 200; trial++ {
			g := c.graph(rng, 1+rng.Intn(7))
			id := graph.SmallLocallyUnique(g, 1)
			if rng.Intn(2) == 0 {
				id = graph.GloballyUnique(g)
			}
			in := machinetest.Instance{G: g, ID: id, Certs: playMoves(t, rng, g, id, c.m, c.moves)}
			blames += machinetest.CheckBlame(t, c.m, in, rng, node, 4)
		}
		t.Logf("%s: %d blames", c.m.Name, blames)
		if blames == 0 {
			t.Errorf("%s: no node blamed a port; the contract went unchecked", c.m.Name)
		}
	}
	catalog := []*simulate.Machine{arbiters.AllSelected(), arbiters.Eulerian(), arbiters.AllEqual(), arbiters.SatGraph(),
		NotAllSelectedArbiter().Machine, OneSelectedArbiter().Machine, HamiltonianArbiter().Machine,
		NonTwoColorableArbiter().Machine, AcyclicArbiter().Machine, OddArbiter().Machine}
	for k := 1; k <= 6; k++ {
		catalog = append(catalog, arbiters.KColorable(k))
	}
	for _, m := range catalog {
		if m.Blame != nil && !checked[m.Name] {
			t.Errorf("%s declares a Blame that no case checks", m.Name)
		}
	}
}
