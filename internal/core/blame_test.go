package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/arbiters"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/simulate"
	"repro/internal/simulate/machinetest"
)

// TestCombinatorsWithoutBlame: a Product under a custom combine may
// accept over a rejecting component, and Relativize's verdict walks its
// flags first, so neither passes a component's blame through. Built
// on KColorable, whose nodes do blame, each must report no blame on
// any rejecting node, and its Σ1 and Π1 games on generated graphs must
// have the reference engine's value under every engine.
func TestCombinatorsWithoutBlame(t *testing.T) {
	t.Parallel()
	or := func(outs []string) string {
		for _, o := range outs {
			if o == "1" {
				return "1"
			}
		}
		return "0"
	}
	notThree := bitMachine("test:not-11", func(_ string, c []string) bool { return len(c) == 0 || c[0] != "11" })
	machines := []*simulate.Machine{
		core.Product("3-or-4-colorable", or, arbiters.KColorable(3), arbiters.KColorable(4)),
		core.Relativize(arbiters.KColorable(4), core.Sigma(1), []core.Restrictor{{Machine: notThree, Move: 1}}, 1),
	}
	rng := rand.New(rand.NewSource(37))
	engines := []search.Options{search.Sequential(), search.Parallel(2)}
	colors := []string{"", "0", "1", "00", "01", "10", "11"}
	for _, m := range machines {
		values := map[bool]bool{}
		for i := 0; i < 40; i++ {
			name, g := core.GeneratedGraph(rng, 2+rng.Intn(3))
			n := g.N()
			id := graph.GloballyUnique(g)
			if m.Blame != nil {
				certs := make([][]string, n)
				for u := range certs {
					certs[u] = []string{colors[rng.Intn(len(colors))]}
				}
				states, halts, res, err := machinetest.Run(m, machinetest.Instance{G: g, ID: id, Certs: certs})
				if err != nil {
					t.Fatal(err)
				}
				for u, o := range res.Outputs {
					if o != "1" && halts[u] >= 2 && m.Blame(states[u]) != -1 {
						t.Fatalf("%s on %s under %q: node %d blames port %d", m.Name, name, certs, u, m.Blame(states[u]))
					}
				}
			}
			prep, err := simulate.Prepare(g, id)
			if err != nil {
				t.Fatal(err)
			}
			domains := []cert.Domain{cert.UniformDomain(n, 2)}
			for _, level := range []core.Level{core.Sigma(1), core.Pi(1)} {
				arb := &core.Arbiter{Machine: m, Level: level, RadiusID: 1}
				want, err := arb.GameValueEngine(prep, domains, core.Reference())
				if err != nil {
					t.Fatalf("%s %v on %s reference: %v", m.Name, level, name, err)
				}
				values[want] = true
				for _, o := range engines {
					if got, err := arb.GameValueEngine(prep, domains, core.Engine{Opts: o}); err != nil || got != want {
						t.Errorf("%s %v on %s under %+v: (%v, %v), reference %v", m.Name, level, name, o, got, err, want)
					}
				}
			}
		}
		if len(values) != 2 {
			t.Errorf("%s: games had only the values %v", m.Name, values)
		}
	}
}
