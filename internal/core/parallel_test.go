package core

import (
	"testing"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/simulate"
)

// tripleParity accepts at a node iff all three certificates are single
// bits and κ1(u) XOR κ2(u) XOR κ3(u) equals the node's 1-bit label. Its
// exhaustive games exercise three alternations with non-trivial play at
// every level.
func tripleParity(level Level) *Arbiter {
	type st struct{ ok bool }
	m := &simulate.Machine{
		Name: "test:triple-parity",
		Init: func(in simulate.Input) any {
			ok := len(in.Certs) == 3 && len(in.Label) == 1
			for _, c := range in.Certs {
				if len(c) != 1 {
					ok = false
				}
			}
			if ok {
				// Four ASCII '0'/'1' bytes XOR'd: the 0x30 components
				// cancel, leaving the pure bit parity.
				ok = (in.Certs[0][0] ^ in.Certs[1][0] ^ in.Certs[2][0] ^ in.Label[0]) == 0
			}
			return &st{ok: ok}
		},
		Round:  func(any, int, []string) ([]string, bool) { return nil, true },
		Output: func(s any) string { return map[bool]string{true: "1", false: "0"}[s.(*st).ok] },
	}
	return &Arbiter{Machine: m, Level: level, RadiusID: 1, Bound: cert.Bound{R: 1, P: cert.Polynomial{8}}}
}

// coreParityCases collects every arbiter exercised by core_test.go and
// restrict_test.go — Σ and Π levels with 1–3 alternations — on instances
// whose outer space is big enough for the engine to split (3^4 = 81
// assignments clears the 64-leaf threshold).
func coreParityCases() []struct {
	name    string
	arb     *Arbiter
	g       *graph.Graph
	domains []cert.Domain
} {
	p4 := graph.Path(4).MustWithLabels([]string{"0", "1", "1", "0"})
	one := func(n int) []cert.Domain { return []cert.Domain{cert.UniformDomain(n, 1)} }
	two := func(n int) []cert.Domain {
		return []cert.Domain{cert.UniformDomain(n, 1), cert.UniformDomain(n, 1)}
	}
	three := func(n int) []cert.Domain {
		return []cert.Domain{cert.UniformDomain(n, 1), cert.UniformDomain(n, 1), cert.UniformDomain(n, 1)}
	}
	relativized := Relativize(matchMachine(), Sigma(1), []Restrictor{oneBitRestrictor(1)}, 1)
	// Components that send through the buffer they are lent
	// (neighbourhoodMachine), run inside the tuple combinators.
	c4 := graph.Cycle(4).MustWithLabels([]string{"1", "0", "0", "0"})
	product := Product("two-coloring×no-equal-ones", nil, twoColoring(), noEqualOnes())
	relativizedColoring := Relativize(twoColoring(), Sigma(1), []Restrictor{atMostOneBit(1)}, 1)
	return []struct {
		name    string
		arb     *Arbiter
		g       *graph.Graph
		domains []cert.Domain
	}{
		{"cert-equals-label Σ1", certEqualsLabel(Sigma(1)), p4, one(4)},
		{"cert-equals-label Π1", certEqualsLabel(Pi(1)), p4, one(4)},
		{"cert-parity Σ2", certParity(Sigma(2)), p4, two(4)},
		{"cert-parity Π2", certParity(Pi(2)), p4, two(4)},
		{"triple-parity Σ3", tripleParity(Sigma(3)), p4, three(4)},
		{"triple-parity Π3", tripleParity(Pi(3)), p4, three(4)},
		// The outer level offers a single assignment (below the split
		// threshold), so the pool must be claimed by the universal level
		// beneath it.
		{"triple-parity Σ3 deep split", tripleParity(Sigma(3)), p4,
			[]cert.Domain{cert.UniformDomain(4, 0), cert.UniformDomain(4, 1), cert.UniformDomain(4, 1)}},
		{"relativized match Σ1", &Arbiter{Machine: relativized, Level: Sigma(1), RadiusID: 1,
			Bound: cert.Bound{R: 1, P: cert.Polynomial{8}}}, p4,
			[]cert.Domain{cert.UniformDomain(4, 2)}},
		{"product broadcast Σ1", &Arbiter{Machine: product, Level: Sigma(1), RadiusID: 1}, c4, one(4)},
		{"relativized broadcast Σ1", &Arbiter{Machine: relativizedColoring, Level: Sigma(1), RadiusID: 1}, p4,
			[]cert.Domain{cert.UniformDomain(4, 2)}},
	}
}

// TestGameValueParallelMatchesSequential asserts, for every core arbiter
// at every level, that the pooled engine computes exactly the value of
// the strictly sequential one. Running under -race additionally checks
// the game-tree fan-out for data races.
func TestGameValueParallelMatchesSequential(t *testing.T) {
	t.Parallel()
	for _, tt := range coreParityCases() {
		id := graph.GloballyUnique(tt.g)
		want, err := gameValue(tt.arb, tt.g, id, tt.domains, Engine{Opts: search.Sequential()})
		if err != nil {
			t.Fatalf("%s sequential: %v", tt.name, err)
		}
		for _, workers := range []int{0, 4} {
			got, err := gameValue(tt.arb, tt.g, id, tt.domains, Engine{Opts: search.Parallel(workers)})
			if err != nil {
				t.Fatalf("%s parallel(%d): %v", tt.name, workers, err)
			}
			if got != want {
				t.Errorf("%s: parallel(%d)=%v sequential=%v", tt.name, workers, got, want)
			}
		}
	}
}

// TestGameValueOptAgreesWithGroundTruth pins the expected values of the
// parity-style games so the parity test cannot silently compare two
// equally wrong engines.
func TestGameValueOptAgreesWithGroundTruth(t *testing.T) {
	t.Parallel()
	p4 := graph.Path(4).MustWithLabels([]string{"0", "1", "1", "0"})
	id := graph.GloballyUnique(p4)
	domains := []cert.Domain{cert.UniformDomain(4, 1)}
	for _, o := range []search.Options{search.Sequential(), search.Parallel(4)} {
		// Eve matches each label with a 1-bit certificate.
		ok, err := gameValue(certEqualsLabel(Sigma(1)), p4, id, domains, Engine{Opts: o})
		if err != nil || !ok {
			t.Fatalf("Σ1 should hold: %v %v", ok, err)
		}
		// Adam exhibits a mismatching certificate.
		ok, err = gameValue(certEqualsLabel(Pi(1)), p4, id, domains, Engine{Opts: o})
		if err != nil || ok {
			t.Fatalf("Π1 should fail: %v %v", ok, err)
		}
		// ∃κ1∀κ2∃κ3: Eve's κ3(u) = κ1(u)⊕κ2(u)⊕label(u) always exists
		// once κ1, κ2 are single bits — but Adam can play an invalid κ2
		// (e.g. the empty string), which no κ3 repairs, so Σ3 is false.
		ok, err = gameValue(tripleParity(Sigma(3)), p4, id,
			[]cert.Domain{cert.UniformDomain(4, 1), cert.UniformDomain(4, 1), cert.UniformDomain(4, 1)}, Engine{Opts: o})
		if err != nil || ok {
			t.Fatalf("Σ3 triple parity should fail: %v %v", ok, err)
		}
	}
}

// TestStrategyGameValueParallelMatchesSequential covers the
// strategy-guided evaluator: Eve's moves are produced by strategies,
// Adam's universal level fans out across the pool.
func TestStrategyGameValueParallelMatchesSequential(t *testing.T) {
	t.Parallel()
	p4 := graph.Path(4).MustWithLabels([]string{"0", "1", "1", "0"})
	id := graph.GloballyUnique(p4)

	// Π2 on the lenient parity machine: Adam opens with any κ1, Eve
	// answers κ2(u) = κ1(u)⊕label(u)⊕1 when κ1(u) is a bit and "" (an
	// invalid certificate the lenient machine forgives) otherwise, so the
	// game value is true.
	type st struct{ ok bool }
	lenient := &simulate.Machine{
		Name: "test:lenient-parity",
		Init: func(in simulate.Input) any {
			valid := len(in.Certs) == 2 && len(in.Certs[0]) == 1 && len(in.Certs[1]) == 1
			ok := !valid || (in.Certs[0][0]^in.Certs[1][0]^in.Label[0]) == '1'
			return &st{ok: ok}
		},
		Round:  func(any, int, []string) ([]string, bool) { return nil, true },
		Output: func(s any) string { return map[bool]string{true: "1", false: "0"}[s.(*st).ok] },
	}
	arb := &Arbiter{Machine: lenient, Level: Pi(2), RadiusID: 1, Bound: cert.Bound{R: 1, P: cert.Polynomial{8}}}
	answer := Strategy(func(g *graph.Graph, _ graph.IDAssignment, moves []cert.Assignment) (cert.Assignment, error) {
		out := make(cert.Assignment, g.N())
		for u := range out {
			k1 := moves[0][u]
			if len(k1) != 1 {
				out[u] = ""
				continue
			}
			out[u] = string([]byte{k1[0] ^ g.Label(u)[0] ^ '1'})
		}
		return out, nil
	})
	strategies := []Strategy{nil, answer}
	domains := []cert.Domain{cert.UniformDomain(4, 1), {}}

	prep, err := simulate.Prepare(p4, id)
	if err != nil {
		t.Fatal(err)
	}
	want, err := arb.StrategyGameValueEngine(prep, strategies, domains, Engine{Opts: search.Sequential()})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	if !want {
		t.Fatal("Eve's answering strategy should win the Π2 game")
	}
	for _, workers := range []int{0, 4} {
		got, err := arb.StrategyGameValueEngine(prep, strategies, domains, Engine{Opts: search.Parallel(workers)})
		if err != nil {
			t.Fatalf("parallel(%d): %v", workers, err)
		}
		if got != want {
			t.Errorf("parallel(%d)=%v sequential=%v", workers, got, want)
		}
	}
}
