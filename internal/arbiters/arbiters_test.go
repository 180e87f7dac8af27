package arbiters

import (
	"math/rand"
	"testing"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/props"
	"repro/internal/sat"
	"repro/internal/simulate"
)

func decide(t *testing.T, m *simulate.Machine, g *graph.Graph) bool {
	t.Helper()
	ok, err := simulate.Decide(m, g, graph.SmallLocallyUnique(g, 1), simulate.Options{})
	if err != nil {
		t.Fatalf("%s on %v: %v", m.Name, g, err)
	}
	return ok
}

func TestAllSelectedDecider(t *testing.T) {
	t.Parallel()
	m := AllSelected()
	for mask := uint(0); mask < 16; mask++ {
		g := graph.Path(4).MustWithLabels(graph.BitLabels(4, mask))
		if decide(t, m, g) != props.AllSelected(g) {
			t.Fatalf("mismatch on mask %b", mask)
		}
	}
}

func TestEulerianDecider(t *testing.T) {
	t.Parallel()
	m := Eulerian()
	graphs := []*graph.Graph{
		graph.Cycle(4), graph.Cycle(5), graph.Path(3), graph.Complete(5),
		graph.Complete(4), graph.Star(4), graph.Single(""),
	}
	for _, g := range graphs {
		if decide(t, m, g) != props.Eulerian(g) {
			t.Fatalf("mismatch on %v", g)
		}
	}
}

func TestAllEqualDecider(t *testing.T) {
	t.Parallel()
	m := AllEqual()
	eq := graph.Cycle(4).MustWithLabels([]string{"01", "01", "01", "01"})
	ne := graph.Cycle(4).MustWithLabels([]string{"01", "01", "11", "01"})
	if !decide(t, m, eq) || decide(t, m, ne) {
		t.Fatal("AllEqual wrong")
	}
}

// runNLP evaluates the Σ^lp_1 game with Eve's strategy.
func runNLP(t *testing.T, m *simulate.Machine, strat core.Strategy, g *graph.Graph) bool {
	t.Helper()
	arb := &core.Arbiter{
		Machine:  m,
		Level:    core.Sigma(1),
		RadiusID: 1,
		Bound:    cert.Bound{R: 1, P: cert.Polynomial{0, 4}},
	}
	prep, err := simulate.Prepare(g, graph.SmallLocallyUnique(g, 1))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := arb.StrategyGameValueEngine(prep, []core.Strategy{strat}, []cert.Domain{{}}, core.Engine{})
	if err != nil {
		t.Fatalf("%s: %v", m.Name, err)
	}
	return ok
}

// TestColoringVerifiers: the NLP machines accept with Eve's coloring
// certificates exactly on k-colorable instances. Soundness (rejecting
// every certificate on no-instances) is checked exhaustively for k=2.
func TestColoringVerifiers(t *testing.T) {
	t.Parallel()
	graphs := []*graph.Graph{
		graph.Cycle(4), graph.Cycle(5), graph.Complete(3), graph.Complete(4),
		graph.Star(4), graph.Path(4), graph.Grid(2, 3),
	}
	for _, g := range graphs {
		for k := 2; k <= 4; k++ {
			want := props.KColorable(g, k)
			got := runNLP(t, KColorable(k), ColoringStrategy(k), g)
			if got != want {
				t.Fatalf("%d-colorable on %v: got %v, want %v", k, g, got, want)
			}
		}
	}
}

// TestTwoColorableSoundness: on an odd cycle, NO certificate assignment
// makes the 2-colorability verifier accept (exhaustive Σ^lp_1 game).
func TestTwoColorableSoundness(t *testing.T) {
	t.Parallel()
	g := graph.Cycle(5)
	arb := &core.Arbiter{
		Machine:  TwoColorable(),
		Level:    core.Sigma(1),
		RadiusID: 1,
		Bound:    cert.Bound{R: 1, P: cert.Polynomial{0, 4}},
	}
	prep, err := simulate.Prepare(g, graph.SmallLocallyUnique(g, 1))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := arb.GameValueEngine(prep, []cert.Domain{cert.UniformDomain(5, 1)}, core.Engine{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("some certificate convinced the verifier that C5 is 2-colorable")
	}
	// And on C4 a certificate exists.
	g4 := graph.Cycle(4)
	prep, err = simulate.Prepare(g4, graph.SmallLocallyUnique(g4, 1))
	if err != nil {
		t.Fatal(err)
	}
	ok, err = arb.GameValueEngine(prep, []cert.Domain{cert.UniformDomain(4, 1)}, core.Engine{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no certificate found for 2-colorable C4")
	}
}

func TestKColorableRejectsMalformedCertificates(t *testing.T) {
	t.Parallel()
	g := graph.Path(2)
	id := graph.GloballyUnique(g)
	m := KColorable(3)
	for _, certs := range [][]string{
		{"", ""},     // missing
		{"11", "00"}, // "11" = color 3 >= k
		{"0", "01"},  // wrong width
	} {
		lists := [][]string{{certs[0]}, {certs[1]}}
		res, err := simulate.Run(m, g, id, lists, simulate.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted() {
			t.Fatalf("malformed certificates %v accepted", certs)
		}
	}
}

func TestSatGraphVerifier(t *testing.T) {
	t.Parallel()
	mk := func(topo *graph.Graph, formulas ...string) *graph.Graph {
		fs := make([]sat.Formula, len(formulas))
		for i, s := range formulas {
			fs[i] = sat.MustParse(s)
		}
		bg, err := sat.NewBooleanGraph(topo, fs)
		if err != nil {
			t.Fatal(err)
		}
		return bg.G
	}
	cases := []struct {
		g    *graph.Graph
		want bool
	}{
		{mk(graph.Path(2), "P1|~P2|~P3", "P3|P4|~P5"), true},
		{mk(graph.Path(2), "P", "~P"), false},
		{mk(graph.Path(3), "P", "P|~P", "~P"), false},
		{mk(graph.Cycle(3), "A", "A&B", "~B"), false},
		{mk(graph.Cycle(3), "A", "A&B", "B"), true},
		{mk(graph.Single(""), "A&~A"), false},
		{mk(graph.Single(""), "A|~A"), true},
	}
	for _, tt := range cases {
		got := runNLP(t, SatGraph(), SatGraphStrategy(), tt.g)
		if got != tt.want {
			t.Fatalf("sat-graph on %v: got %v, want %v", tt.g, got, tt.want)
		}
		if got != props.SatGraph(tt.g) {
			t.Fatal("verifier disagrees with ground truth")
		}
	}
}

func TestSatGraphRejectsGarbage(t *testing.T) {
	t.Parallel()
	// Labels that don't decode to formulas must be rejected regardless of
	// certificates.
	g := graph.Path(2).MustWithLabels([]string{"01", "1"})
	got := runNLP(t, SatGraph(), SatGraphStrategy(), g)
	if got {
		t.Fatal("garbage labels accepted")
	}
}

func TestSatGraphRandomAgainstGroundTruth(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(77))
	vars := []string{"A", "B", "C"}
	randFormula := func() sat.Formula {
		// Random 2-clause CNF over 3 vars.
		var and sat.And
		for i := 0; i < 1+rng.Intn(2); i++ {
			var or sat.Or
			for j := 0; j <= rng.Intn(2); j++ {
				var lit sat.Formula = sat.Var(vars[rng.Intn(len(vars))])
				if rng.Intn(2) == 0 {
					lit = sat.Not{F: lit}
				}
				or = append(or, lit)
			}
			and = append(and, or)
		}
		return and
	}
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(3)
		topo := graph.RandomConnected(n, 0.5, rng)
		fs := make([]sat.Formula, n)
		for i := range fs {
			fs[i] = randFormula()
		}
		bg, err := sat.NewBooleanGraph(topo, fs)
		if err != nil {
			t.Fatal(err)
		}
		want := props.SatGraph(bg.G)
		got := runNLP(t, SatGraph(), SatGraphStrategy(), bg.G)
		if got != want {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
	}
}

func TestValuationCodec(t *testing.T) {
	t.Parallel()
	val := map[string]bool{"P1": true, "A": false}
	enc := encodeValuation([]string{"P1", "A"}, val)
	if enc != "A:0;P1:1" {
		t.Fatalf("encodeValuation = %q", enc)
	}
	dec, ok := decodeValuation(enc)
	if !ok || dec["P1"] != true || dec["A"] != false {
		t.Fatalf("decodeValuation = %v, %v", dec, ok)
	}
	if _, ok := decodeValuation("garbage"); ok {
		t.Fatal("garbage decoded")
	}
	if v, ok := decodeValuation(""); !ok || len(v) != 0 {
		t.Fatal("empty valuation should decode to empty map")
	}
}
