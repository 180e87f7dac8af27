package core

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/simulate"
)

func TestLevelNames(t *testing.T) {
	t.Parallel()
	if Sigma(0).String() != "LP" || Sigma(1).String() != "Σ^lp_1" || Pi(2).String() != "Π^lp_2" {
		t.Fatal("level names wrong")
	}
}

func TestExistentialAt(t *testing.T) {
	t.Parallel()
	s3 := Sigma(3)
	if !s3.ExistentialAt(1) || s3.ExistentialAt(2) || !s3.ExistentialAt(3) {
		t.Fatal("Σ quantifier pattern wrong")
	}
	p2 := Pi(2)
	if p2.ExistentialAt(1) || !p2.ExistentialAt(2) {
		t.Fatal("Π quantifier pattern wrong")
	}
}

// certEqualsLabel accepts at a node iff its first certificate equals its
// label. Used to exercise the quantifier semantics.
func certEqualsLabel(level Level) *Arbiter {
	type st struct{ ok bool }
	m := &simulate.Machine{
		Name: "test:cert-equals-label",
		Init: func(in simulate.Input) any {
			ok := len(in.Certs) > 0 && in.Certs[0] == in.Label
			return &st{ok: ok}
		},
		Round:  func(any, int, []string) ([]string, bool) { return nil, true },
		Output: func(s any) string { return map[bool]string{true: "1", false: "0"}[s.(*st).ok] },
	}
	return &Arbiter{Machine: m, Level: level, RadiusID: 1, Bound: cert.Bound{R: 1, P: cert.Polynomial{8}}}
}

// gameValue prepares (g, id) and plays the exhaustive game on it under e.
func gameValue(a *Arbiter, g *graph.Graph, id graph.IDAssignment, domains []cert.Domain, e Engine) (bool, error) {
	prep, err := simulate.Prepare(g, id)
	if err != nil {
		return false, err
	}
	return a.GameValueEngine(prep, domains, e)
}

func TestGameValueExistential(t *testing.T) {
	t.Parallel()
	g := graph.Path(2).MustWithLabels([]string{"0", "1"})
	id := graph.GloballyUnique(g)
	arb := certEqualsLabel(Sigma(1))
	// Eve can match each label with a 1-bit certificate.
	ok, err := gameValue(arb, g, id, []cert.Domain{cert.UniformDomain(2, 1)}, Engine{})
	if err != nil || !ok {
		t.Fatalf("∃ should succeed: %v %v", ok, err)
	}
	// With 0-length certificates only, Eve cannot match "0"/"1" labels.
	ok, err = gameValue(arb, g, id, []cert.Domain{cert.UniformDomain(2, 0)}, Engine{})
	if err != nil || ok {
		t.Fatalf("∃ over empty strings should fail: %v %v", ok, err)
	}
}

func TestGameValueUniversal(t *testing.T) {
	t.Parallel()
	g := graph.Path(2).MustWithLabels([]string{"0", "1"})
	id := graph.GloballyUnique(g)
	arb := certEqualsLabel(Pi(1))
	// ∀κ1: the machine rejects for most certificates.
	ok, err := gameValue(arb, g, id, []cert.Domain{cert.UniformDomain(2, 1)}, Engine{})
	if err != nil || ok {
		t.Fatalf("∀ should fail: %v %v", ok, err)
	}
}

// certParity accepts iff κ1(u) XOR κ2(u) = label(u) bitwise on 1-bit
// strings. At level Σ2 (∃κ1∀κ2) Eve cannot win; at level Π2 (∀κ1∃κ2) Adam
// cannot prevent Eve from matching.
func certParity(level Level) *Arbiter {
	type st struct{ ok bool }
	m := &simulate.Machine{
		Name: "test:cert-parity",
		Init: func(in simulate.Input) any {
			ok := len(in.Certs) == 2 &&
				len(in.Certs[0]) == 1 && len(in.Certs[1]) == 1 && len(in.Label) == 1 &&
				(in.Certs[0][0]^in.Certs[1][0]^in.Label[0]) == '0'
			// XOR of ASCII '0'/'1' characters: equal chars give 0 = '0'^'0'.
			return &st{ok: ok}
		},
		Round:  func(any, int, []string) ([]string, bool) { return nil, true },
		Output: func(s any) string { return map[bool]string{true: "1", false: "0"}[s.(*st).ok] },
	}
	return &Arbiter{Machine: m, Level: level, RadiusID: 1, Bound: cert.Bound{R: 1, P: cert.Polynomial{8}}}
}

func TestGameValueAlternation(t *testing.T) {
	t.Parallel()
	g := graph.Single("1")
	id := graph.IDAssignment{""}
	domains := []cert.Domain{cert.UniformDomain(1, 1), cert.UniformDomain(1, 1)}

	// Σ2: ∃κ1∀κ2 — whatever Eve fixes, Adam can break parity.
	ok, err := gameValue(certParity(Sigma(2)), g, id, domains, Engine{})
	if err != nil || ok {
		t.Fatalf("Σ2 game should be false: %v %v", ok, err)
	}
	// Π2: ∀κ1∃κ2 — Eve answers Adam's move.
	// Note κ1 may be "" (invalid), in which case the machine rejects for
	// every κ2, so the Π2 value is false as well. Restrict the domains to
	// exactly-one-bit strings... the domain always contains "". Instead
	// verify the dual machine: accept unless certificates are valid AND
	// parity fails.
	type st struct{ ok bool }
	lenient := &simulate.Machine{
		Name: "test:cert-parity-lenient",
		Init: func(in simulate.Input) any {
			valid := len(in.Certs) == 2 && len(in.Certs[0]) == 1 && len(in.Certs[1]) == 1
			ok := !valid || (in.Certs[0][0]^in.Certs[1][0]^in.Label[0]) == '0'
			return &st{ok: ok}
		},
		Round:  func(any, int, []string) ([]string, bool) { return nil, true },
		Output: func(s any) string { return map[bool]string{true: "1", false: "0"}[s.(*st).ok] },
	}
	arb := &Arbiter{Machine: lenient, Level: Pi(2), RadiusID: 1, Bound: cert.Bound{R: 1, P: cert.Polynomial{8}}}
	ok, err = gameValue(arb, g, id, domains, Engine{})
	if err != nil || !ok {
		t.Fatalf("Π2 game should be true: %v %v", ok, err)
	}
}

func TestStrategyGameValue(t *testing.T) {
	t.Parallel()
	g := graph.Path(2).MustWithLabels([]string{"0", "1"})
	id := graph.GloballyUnique(g)
	arb := certEqualsLabel(Sigma(1))
	copyLabels := Strategy(func(g *graph.Graph, _ graph.IDAssignment, _ []cert.Assignment) (cert.Assignment, error) {
		out := make(cert.Assignment, g.N())
		for u := range out {
			out[u] = g.Label(u)
		}
		return out, nil
	})
	prep, err := simulate.Prepare(g, id)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := arb.StrategyGameValueEngine(prep, []Strategy{copyLabels}, []cert.Domain{{}}, Engine{})
	if err != nil || !ok {
		t.Fatalf("strategy should win: %v %v", ok, err)
	}
}

// TestStrategyGameSlotChecks: a strategy game is refused before any
// leaf runs unless it has one strategy/domain slot per move, a strategy
// at every existential move and, at every universal one, a domain with
// one entry per node.
func TestStrategyGameSlotChecks(t *testing.T) {
	t.Parallel()
	g := graph.Path(2).MustWithLabels([]string{"0", "1"})
	prep, err := simulate.Prepare(g, graph.GloballyUnique(g))
	if err != nil {
		t.Fatal(err)
	}
	reply := Strategy(func(g *graph.Graph, _ graph.IDAssignment, _ []cert.Assignment) (cert.Assignment, error) {
		return make(cert.Assignment, g.N()), nil
	})
	one := cert.UniformDomain(2, 1)
	for _, tt := range []struct {
		strategies []Strategy
		domains    []cert.Domain
		want       string
	}{
		{[]Strategy{nil, reply}, []cert.Domain{one}, "core: need 2 strategy/domain slots"},
		{[]Strategy{nil, nil}, []cert.Domain{one, {}}, "core: move 2 is existential but has no strategy"},
		{[]Strategy{nil, reply}, []cert.Domain{{}, {}}, "core: move 1 domain covers 0 nodes, graph has 2"},
		{[]Strategy{nil, reply}, []cert.Domain{cert.UniformDomain(1, 1), {}}, "core: move 1 domain covers 1 nodes, graph has 2"},
		{[]Strategy{nil, reply}, []cert.Domain{cert.UniformDomain(3, 1), {}}, "core: move 1 domain covers 3 nodes, graph has 2"},
	} {
		_, err := certParity(Pi(2)).StrategyGameValueEngine(prep, tt.strategies, tt.domains, Engine{Opts: search.Sequential()})
		if err == nil || err.Error() != tt.want {
			t.Errorf("err = %v, want %q", err, tt.want)
		}
	}
}

// TestGameDomainChecks: an exhaustive game is refused before any leaf
// runs unless it has one domain per move, each with one entry per node;
// a short domain used to index past its end inside a leaf (a panic,
// which under a parallel pool takes the process down).
func TestGameDomainChecks(t *testing.T) {
	t.Parallel()
	g := graph.Path(4).MustWithLabels([]string{"0", "1", "1", "0"})
	prep, err := simulate.Prepare(g, graph.GloballyUnique(g))
	if err != nil {
		t.Fatal(err)
	}
	four := cert.UniformDomain(4, 1)
	for _, tt := range []struct {
		domains []cert.Domain
		want    string
	}{
		{[]cert.Domain{four}, "core: 1 domains for level Σ^lp_2"},
		{[]cert.Domain{cert.UniformDomain(3, 1), four}, "core: move 1 domain covers 3 nodes, graph has 4"},
		{[]cert.Domain{four, cert.UniformDomain(6, 1)}, "core: move 2 domain covers 6 nodes, graph has 4"},
	} {
		for _, e := range []Engine{Reference(), {Opts: search.Sequential()}} {
			_, err := certParity(Sigma(2)).GameValueEngine(prep, tt.domains, e)
			if err == nil || err.Error() != tt.want {
				t.Errorf("err = %v, want %q", err, tt.want)
			}
		}
	}
}

func TestProductConjoinsVerdicts(t *testing.T) {
	t.Parallel()
	accept := &simulate.Machine{
		Name:   "yes",
		Init:   func(simulate.Input) any { return nil },
		Round:  func(any, int, []string) ([]string, bool) { return nil, true },
		Output: func(any) string { return "1" },
	}
	rejectOn0 := &simulate.Machine{
		Name: "label-not-0",
		Init: func(in simulate.Input) any { return in.Label },
		Round: func(any, int, []string) ([]string, bool) {
			return nil, true
		},
		Output: func(s any) string {
			if s.(string) == "0" {
				return "0"
			}
			return "1"
		},
	}
	prod := Product("both", nil, accept, rejectOn0)
	g := graph.Path(2).MustWithLabels([]string{"1", "0"})
	res, err := simulate.Run(prod, g, graph.GloballyUnique(g), nil, simulate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted() {
		t.Fatal("product should reject when a component rejects")
	}
	if res.Outputs[0] != "1" || res.Outputs[1] != "0" {
		t.Fatalf("outputs = %v", res.Outputs)
	}
}

// TestProductMessaging: component machines exchanging messages through the
// product must behave as if run alone.
func TestProductMessaging(t *testing.T) {
	t.Parallel()
	// echoNeighborLabel: accepts iff all neighbor labels equal its own.
	mk := func() *simulate.Machine {
		type st struct {
			label string
			deg   int
			ok    bool
		}
		return &simulate.Machine{
			Name: "eq",
			Init: func(in simulate.Input) any { return &st{label: in.Label, deg: in.Degree, ok: true} },
			Round: func(sv any, round int, recv []string) ([]string, bool) {
				s := sv.(*st)
				if round == 1 {
					out := make([]string, s.deg)
					for i := range out {
						out[i] = s.label
					}
					return out, false
				}
				for _, m := range recv {
					if m != s.label {
						s.ok = false
					}
				}
				return nil, true
			},
			Output: func(sv any) string { return map[bool]string{true: "1", false: "0"}[sv.(*st).ok] },
		}
	}
	g := graph.Cycle(4).MustWithLabels([]string{"1", "1", "1", "1"})
	id := graph.GloballyUnique(g)
	solo, err := simulate.Run(mk(), g, id, nil, simulate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prod, err := simulate.Run(Product("pair", nil, mk(), mk()), g, id, nil, simulate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if solo.Accepted() != prod.Accepted() {
		t.Fatal("product changed component behavior")
	}
	bad := graph.Cycle(4).MustWithLabels([]string{"1", "1", "0", "1"})
	prodBad, err := simulate.Run(Product("pair", nil, mk(), mk()), bad, id, nil, simulate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if prodBad.Accepted() {
		t.Fatal("product must reject when components reject")
	}
}

// TestProductEqualsConjunction: on generated graphs, the product of
// message-passing components that halt in different rounds must give
// every node the conjunction of the verdicts the components reach run
// alone — on both engines (Run and the buffer-reusing RunAccepted).
// Running each component alone is the ground truth: it involves no
// tuple codec. The components send empty, short, separator-laden and
// 200-byte messages, to some neighbours only, and reuse their send
// slices across rounds.
func TestProductEqualsConjunction(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	var graphs []*graph.Graph
	for n := 2; n <= 7; n++ {
		graphs = append(graphs, graph.Path(n), graph.Star(n), graph.RandomTree(n, rng), graph.RandomConnected(n, 0.5, rng))
		if n >= 3 {
			graphs = append(graphs, graph.Cycle(n))
		}
	}
	graphs = append(graphs, graph.Grid(2, 3), graph.Grid(3, 3), graph.Complete(5))
	comps := []*simulate.Machine{longEcho(), degreeRelay(), silentParity(), firstNeighbourOnly(), idOrder(), chatter()}
	seen := make([]map[bool]bool, len(comps)) // the verdicts each component reached
	for i := range seen {
		seen[i] = map[bool]bool{}
	}
	for gi, base := range graphs {
		n := base.N()
		for sample := 0; sample < 3; sample++ {
			g := base.MustWithLabels(graph.BitLabels(n, uint(rng.Intn(1<<n))))
			id := graph.GloballyUnique(g)
			prep, err := simulate.Prepare(g, id)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]bool, n)
			verdicts := make([][]string, n) // verdicts[u][i]: component i alone at u
			for u := range want {
				want[u] = true
			}
			all := true
			for i, m := range comps {
				res, err := simulate.Run(m, g, id, nil, simulate.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for u, o := range res.Outputs {
					want[u] = want[u] && o == "1"
					verdicts[u] = append(verdicts[u], o)
					seen[i][o == "1"] = true
				}
				all = all && res.Accepted()
				// The buffer-reusing engine, one component at a time so no
				// other component's rejection can mask an error.
				got, err := prep.RunAccepted(Product("solo", nil, m), nil, 0, prep.NewScratch())
				if err != nil {
					t.Fatal(err)
				}
				if got != res.Accepted() {
					t.Errorf("graph %d %v labels %v: RunAccepted product of %s alone = %v, %s alone %v",
						gi, g.Edges(), g.Labels(), m.Name, got, m.Name, res.Accepted())
				}
			}
			prod := Product("product", nil, comps...)
			res, err := simulate.Run(prod, g, id, nil, simulate.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for u, o := range res.Outputs {
				if (o == "1") != want[u] {
					t.Errorf("graph %d %v labels %v: node %d product verdict %q, components conjoined %v",
						gi, g.Edges(), g.Labels(), u, o, want[u])
				}
			}
			got, err := prep.RunAccepted(prod, nil, 0, prep.NewScratch())
			if err != nil {
				t.Fatal(err)
			}
			if got != all {
				t.Errorf("graph %d %v labels %v: RunAccepted product = %v, components conjoined %v", gi, g.Edges(), g.Labels(), got, all)
			}
			// Every component's own verdict, read through the product.
			each := Product("product-verdicts", func(outs []string) string { return strings.Join(outs, ",") }, comps...)
			res, err = simulate.Run(each, g, id, nil, simulate.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for u, o := range res.Outputs {
				if w := strings.Join(verdicts[u], ","); o != w {
					t.Errorf("graph %d %v labels %v: node %d component verdicts in the product %s, alone %s",
						gi, g.Edges(), g.Labels(), u, o, w)
				}
			}
		}
	}
	for i, vals := range seen {
		if !vals[true] || !vals[false] {
			t.Errorf("%s only reached the verdicts %v; the check needs both", comps[i].Name, vals)
		}
	}
}

// longEcho sends a 200-byte message built from its label and id in
// round 1 (a two-byte length in the tuple) and accepts in round 2 iff
// the number of neighbours that sent the same message as it has the
// parity of its label.
func longEcho() *simulate.Machine {
	type st struct {
		msg   string
		label string
		deg   int
		ok    bool
	}
	return &simulate.Machine{
		Name: "comp:long-echo",
		Init: func(in simulate.Input) any {
			return &st{msg: strings.Repeat(in.Label+"|", 100), label: in.Label, deg: in.Degree}
		},
		Round: func(sv any, round int, recv []string) ([]string, bool) {
			s := sv.(*st)
			if round == 1 {
				out := make([]string, s.deg)
				for j := range out {
					out[j] = s.msg
				}
				return out, false
			}
			same := 0
			for _, m := range recv {
				if m == s.msg {
					same++
				}
			}
			s.ok = (same%2 == 1) == (s.label == "1")
			return nil, true
		},
		Output: func(sv any) string { return map[bool]string{true: "1", false: "0"}[sv.(*st).ok] },
	}
}

// degreeRelay runs three rounds, reusing one send slice: it sends its
// degree, then the largest degree it has heard of, and accepts iff no
// node within two hops has degree above 3.
func degreeRelay() *simulate.Machine {
	type st struct {
		max  int
		send []string
	}
	return &simulate.Machine{
		Name: "comp:degree-relay",
		Init: func(in simulate.Input) any { return &st{max: in.Degree, send: make([]string, in.Degree)} },
		Round: func(sv any, round int, recv []string) ([]string, bool) {
			s := sv.(*st)
			for _, m := range recv {
				if d, err := strconv.Atoi(m); err == nil && d > s.max {
					s.max = d
				}
			}
			if round == 3 {
				return nil, true
			}
			for j := range s.send {
				s.send[j] = strconv.Itoa(s.max)
			}
			return s.send, false
		},
		Output: func(sv any) string { return map[bool]string{true: "1", false: "0"}[sv.(*st).max <= 3] },
	}
}

// silentParity never sends and halts at once: it accepts iff its label
// is "1" or its degree is even.
func silentParity() *simulate.Machine {
	return &simulate.Machine{
		Name:   "comp:silent-parity",
		Init:   func(in simulate.Input) any { return in.Label == "1" || in.Degree%2 == 0 },
		Round:  func(any, int, []string) ([]string, bool) { return nil, true },
		Output: func(s any) string { return map[bool]string{true: "1", false: "0"}[s.(bool)] },
	}
}

// firstNeighbourOnly sends a JSON-looking message with separators and
// digits to every neighbour in round 1 and to its first neighbour only
// in round 2 (a send slice shorter than the degree, so the rest must
// go out empty), and accepts in round 3 iff it is not labelled "1" or
// some neighbour's round-2 message reached it.
func firstNeighbourOnly() *simulate.Machine {
	type st struct {
		label string
		deg   int
		ok    bool
	}
	return &simulate.Machine{
		Name: "comp:first-neighbour-only",
		Init: func(in simulate.Input) any { return &st{label: in.Label, deg: in.Degree} },
		Round: func(sv any, round int, recv []string) ([]string, bool) {
			s := sv.(*st)
			msg := `["` + s.label + `",1,"a\"b"]`
			switch round {
			case 1:
				out := make([]string, s.deg)
				for j := range out {
					out[j] = msg
				}
				return out, false
			case 2:
				return []string{msg}, false
			}
			heard := false
			for _, m := range recv {
				if m != "" {
					heard = true
				}
			}
			s.ok = heard || s.label != "1"
			return nil, true
		},
		Output: func(sv any) string { return map[bool]string{true: "1", false: "0"}[sv.(*st).ok] },
	}
}

// chatter sends "x" to every neighbour each round it runs: one round at
// a node labelled "1", three elsewhere. In its last round it accepts
// iff the count of non-empty messages it received is even; a neighbour
// that has halted must read as silent.
func chatter() *simulate.Machine {
	type st struct {
		last, heard int
		send        []string
	}
	return &simulate.Machine{
		Name: "comp:chatter",
		Init: func(in simulate.Input) any {
			s := &st{last: 3, send: make([]string, in.Degree)}
			if in.Label == "1" {
				s.last = 1
			}
			for j := range s.send {
				s.send[j] = "x"
			}
			return s
		},
		Round: func(sv any, round int, recv []string) ([]string, bool) {
			s := sv.(*st)
			for _, m := range recv {
				if m != "" {
					s.heard++
				}
			}
			return s.send, round == s.last
		},
		Output: func(sv any) string { return map[bool]string{true: "1", false: "0"}[sv.(*st).heard%2 == 0] },
	}
}

// idOrder sends its identifier to each neighbour and accepts iff the
// identifiers arrive in ascending order — the engines' neighbour order,
// so this fails only if a message reaches the wrong slot — and, for a
// node labelled "0", the first is below its own.
func idOrder() *simulate.Machine {
	type st struct {
		id, label string
		deg       int
		ok        bool
	}
	return &simulate.Machine{
		Name: "comp:id-order",
		Init: func(in simulate.Input) any { return &st{id: in.ID, label: in.Label, deg: in.Degree} },
		Round: func(sv any, round int, recv []string) ([]string, bool) {
			s := sv.(*st)
			if round == 1 {
				out := make([]string, s.deg)
				for j := range out {
					out[j] = s.id
				}
				return out, false
			}
			s.ok = len(recv) == 0 || s.label == "1" || graph.CompareID(recv[0], s.id) < 0
			for j := 1; j < len(recv); j++ {
				if graph.CompareID(recv[j-1], recv[j]) >= 0 {
					s.ok = false
				}
			}
			return nil, true
		},
		Output: func(sv any) string { return map[bool]string{true: "1", false: "0"}[sv.(*st).ok] },
	}
}

func TestWithPrecondition(t *testing.T) {
	t.Parallel()
	always := &simulate.Machine{
		Name:   "always",
		Init:   func(simulate.Input) any { return nil },
		Round:  func(any, int, []string) ([]string, bool) { return nil, true },
		Output: func(any) string { return "1" },
	}
	evenDegree := &simulate.Machine{
		Name: "even-degree",
		Init: func(in simulate.Input) any { return in.Degree%2 == 0 },
		Round: func(any, int, []string) ([]string, bool) {
			return nil, true
		},
		Output: func(s any) string { return map[bool]string{true: "1", false: "0"}[s.(bool)] },
	}
	combined := WithPrecondition(always, evenDegree)
	cyc := graph.Cycle(4)
	path := graph.Path(3)
	okCyc, err := simulate.Decide(combined, cyc, graph.GloballyUnique(cyc), simulate.Options{})
	if err != nil || !okCyc {
		t.Fatalf("cycle should pass precondition: %v %v", okCyc, err)
	}
	okPath, err := simulate.Decide(combined, path, graph.GloballyUnique(path), simulate.Options{})
	if err != nil || okPath {
		t.Fatalf("path should fail precondition: %v %v", okPath, err)
	}
}
