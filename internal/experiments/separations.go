package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/arbiters"
	"repro/internal/graph"
	"repro/internal/props"
	"repro/internal/search"
	"repro/internal/simulate"
)

// This file executes the ground-level separation arguments of Section 9.1
// (Figure 2/13) against real machines:
//
//   - Proposition 24 (LP ⊊ NLP): any constant-round machine that works
//     under locally unique identifiers produces identical verdicts on an
//     odd cycle and on the even "glued double" cycle carrying duplicated
//     identifiers — so no LP machine decides 2-colorability.
//   - Proposition 26 (coLP ⋚ NLP): any (r,p)-bounded-certificate verifier
//     for not-all-selected is defeated by a pigeonhole/pumping argument:
//     an accepting run on a long cycle with one unselected node can be
//     spliced into an accepting run on an all-selected cycle.

// edgeGatherer floods explicit edge facts: in round 1 every node tells its
// neighbors its identifier; afterwards nodes know their incident edges as
// id pairs and flood them for `radius` more rounds, then decide
// bipartiteness of the reconstructed graph.
func edgeGatherer(radius int) *simulate.Machine {
	type st struct {
		id    string
		edges map[string]bool
		ok    bool
	}
	return &simulate.Machine{
		Name: fmt.Sprintf("edge-gatherer(r=%d)", radius),
		Init: func(in simulate.Input) any {
			return &st{id: in.ID, edges: make(map[string]bool), ok: true}
		},
		Round: func(sv any, round int, recv []string) ([]string, bool) {
			s := sv.(*st)
			if round == 1 {
				return simulate.Broadcast(recv, s.id), false
			}
			if round == 2 {
				for _, nid := range recv {
					a, b := s.id, nid
					if a > b {
						a, b = b, a
					}
					s.edges[a+">"+b] = true
				}
			} else {
				for _, m := range recv {
					for _, f := range strings.Split(m, "|") {
						if f != "" {
							s.edges[f] = true
						}
					}
				}
			}
			if round >= radius+2 {
				s.ok = bipartiteEdgeSet(s.edges)
				return nil, true
			}
			var all []string
			for f := range s.edges {
				all = append(all, f)
			}
			sort.Strings(all)
			msg := strings.Join(all, "|")
			return simulate.Broadcast(recv, msg), false
		},
		Output: func(sv any) string {
			if sv.(*st).ok {
				return "1"
			}
			return "0"
		},
	}
}

// bipartiteEdgeSet 2-colors the graph given by "a>b" edge facts.
func bipartiteEdgeSet(edges map[string]bool) bool {
	adj := make(map[string][]string)
	for e := range edges {
		parts := strings.SplitN(e, ">", 2)
		if len(parts) != 2 {
			continue
		}
		adj[parts[0]] = append(adj[parts[0]], parts[1])
		adj[parts[1]] = append(adj[parts[1]], parts[0])
	}
	color := make(map[string]int)
	var names []string
	for v := range adj {
		names = append(names, v)
	}
	sort.Strings(names)
	for _, src := range names {
		if _, done := color[src]; done {
			continue
		}
		color[src] = 0
		queue := []string{src}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range adj[v] {
				if c, done := color[w]; done {
					if c == color[v] {
						return false
					}
				} else {
					color[w] = 1 - color[v]
					queue = append(queue, w)
				}
			}
		}
	}
	return true
}

// Proposition24 runs the gluing experiment: machines receive the odd cycle
// C_n with identifiers of period n, and the glued double cycle C_2n with
// the *same* identifiers duplicated (still locally unique because opposite
// copies are far apart). For every machine the verdict vectors agree —
// although 2-colorability differs — so none of them (and provably no LP
// machine) decides 2-colorability.
//
// The machine runs are batched through the simulation scheduler: each
// cycle is prepared once (one neighbor-order/slot-map computation per
// instance) and all machines run against it across the engine's worker
// pool. The report rows keep the machine order.
func Proposition24(n int, machines []*simulate.Machine, o search.Options) (*Report, error) {
	if n%2 == 0 {
		return nil, fmt.Errorf("experiments: n must be odd, got %d", n)
	}
	r := &Report{ID: "Prop. 24", Title: fmt.Sprintf("LP ⊊ NLP: C%d vs glued C%d", n, 2*n)}
	odd := graph.Cycle(n)
	even := graph.GluedDoubleCycle(n)
	idOdd := graph.CyclicIDs(n, n)
	idEven := graph.CyclicIDs(2*n, n) // duplicates node i's id at node n+i
	r.Rows = append(r.Rows,
		row("2-colorable differs", true, props.TwoColorable(even) != props.TwoColorable(odd)),
		row("duplicated ids locally unique", true, idEven.IsLocallyUnique(even, (n-1)/2)),
	)
	jobs := make([]simulate.Job, len(machines))
	for i, m := range machines {
		jobs[i] = simulate.Job{Machine: m}
	}
	bopt := simulate.BatchOptions{Workers: o.Workers, Ctx: o.Ctx}
	prepOdd, err := simulate.Prepare(odd, idOdd)
	if err != nil {
		return nil, err
	}
	resOdd, err := prepOdd.Batch(jobs, bopt)
	if err != nil {
		return nil, fmt.Errorf("on C%d: %w", n, err)
	}
	prepEven, err := simulate.Prepare(even, idEven)
	if err != nil {
		return nil, err
	}
	resEven, err := prepEven.Batch(jobs, bopt)
	if err != nil {
		return nil, fmt.Errorf("on glued C%d: %w", 2*n, err)
	}
	//lint:coarse report assembly over already-computed batch results
	for i, m := range machines {
		a, b := resOdd[i], resEven[i]
		same := true
		for u := 0; u < n; u++ {
			if a.Outputs[u] != b.Outputs[u] || a.Outputs[u] != b.Outputs[n+u] {
				same = false
			}
		}
		r.Rows = append(r.Rows, row(m.Name+" verdicts identical", true, same))
	}
	return r, nil
}

// counterVerifier is the bounded-certificate verifier attacked by the
// Proposition 26 experiment: the certificate of each node is a counter
// value in [0, modulus); unselected nodes must carry 0, selected nodes
// must have some neighbor carrying their value minus one (mod modulus) —
// intuitively "someone closer to a witness". It accepts all yes-instances
// of not-all-selected on cycles, but pumping defeats it.
func counterVerifier(modulus int) *simulate.Machine {
	width := 1
	for 1<<uint(width) < modulus {
		width++
	}
	type st struct {
		label string
		val   int
		ok    bool
		enc   string
	}
	return &simulate.Machine{
		Name: fmt.Sprintf("counter-verifier(mod %d)", modulus),
		Init: func(in simulate.Input) any {
			s := &st{label: in.Label, ok: true}
			if len(in.Certs) < 1 || len(in.Certs[0]) != width {
				s.ok = false
				return s
			}
			v, err := strconv.ParseInt(in.Certs[0], 2, 32)
			if err != nil || int(v) >= modulus {
				s.ok = false
				return s
			}
			s.val = int(v)
			s.enc = in.Certs[0]
			if s.label != "1" && s.val != 0 {
				s.ok = false
			}
			return s
		},
		Round: func(sv any, round int, recv []string) ([]string, bool) {
			s := sv.(*st)
			if round == 1 {
				return simulate.Broadcast(recv, s.enc), false
			}
			if !s.ok || s.label != "1" {
				return nil, true
			}
			want := (s.val - 1 + modulus) % modulus
			seen := false
			for _, m := range recv {
				v, err := strconv.ParseInt(m, 2, 32)
				if err == nil && int(v) == want {
					seen = true
				}
			}
			if !seen {
				s.ok = false
			}
			return nil, true
		},
		Output: func(sv any) string {
			if sv.(*st).ok {
				return "1"
			}
			return "0"
		},
	}
}

func widthOf(modulus int) int {
	w := 1
	for 1<<uint(w) < modulus {
		w++
	}
	return w
}

func encodeCounter(v, modulus int) string {
	s := strconv.FormatInt(int64(v), 2)
	for len(s) < widthOf(modulus) {
		s = "0" + s
	}
	return s
}

// Proposition26 runs the pumping experiment against counterVerifier:
//
//  1. On the cycle C_n with exactly one unselected node, Eve's
//     distance-mod-m certificates convince the verifier (completeness).
//  2. Two nodes on the all-selected arc have identical local views
//     (pigeonhole on labels × identifiers × certificates); splicing the
//     cycle between them yields an all-selected cycle whose inherited
//     certificates still convince the verifier — unsoundness, exactly as
//     in the proof that not-all-selected ∉ NLP.
func Proposition26(n, modulus, idPeriod int) (*Report, error) {
	r := &Report{ID: "Prop. 26", Title: "coLP ⋚ NLP: pumping a bounded-certificate verifier"}
	period := lcm(modulus, idPeriod)
	if n%period != 0 || n < 2*period {
		return nil, fmt.Errorf("experiments: need n a multiple of lcm(mod,idPeriod)=%d with room to pump", period)
	}
	labels := make([]string, n)
	certs := make([][]string, n)
	for i := 0; i < n; i++ {
		labels[i] = "1"
		certs[i] = []string{encodeCounter(i%modulus, modulus)}
	}
	labels[0] = "0"
	g := graph.Cycle(n).MustWithLabels(labels)
	id := graph.CyclicIDs(n, idPeriod)
	v := counterVerifier(modulus)

	res, err := simulate.Run(v, g, id, certs, simulate.Options{})
	if err != nil {
		return nil, err
	}
	r.Rows = append(r.Rows, row("verifier accepts the yes-instance", true, res.Accepted()))

	// Pigeonhole: nodes 1 and 1+period have identical (label, id, cert)
	// windows; splice out the arc containing node 0.
	a, b := 1, 1+period
	sameView := labels[a] == labels[b] && id[a] == id[b] && certs[a][0] == certs[b][0]
	r.Rows = append(r.Rows, row("repeated window found", true, sameView))

	m := b - a // length of the spliced all-selected cycle
	spliceLabels := make([]string, m)
	spliceCerts := make([][]string, m)
	spliceID := make(graph.IDAssignment, m)
	for i := 0; i < m; i++ {
		spliceLabels[i] = labels[a+i]
		spliceCerts[i] = certs[a+i]
		spliceID[i] = id[a+i]
	}
	pumped := graph.Cycle(m).MustWithLabels(spliceLabels)
	r.Rows = append(r.Rows,
		row("pumped cycle is all-selected", true, props.AllSelected(pumped)),
		row("pumped ids locally unique", true, spliceID.IsLocallyUnique(pumped, 1)),
	)
	res, err = simulate.Run(v, pumped, spliceID, spliceCerts, simulate.Options{})
	if err != nil {
		return nil, err
	}
	r.Rows = append(r.Rows,
		row("verifier fooled on the no-instance", true, res.Accepted()),
	)
	return r, nil
}

func lcm(a, b int) int {
	g := a
	h := b
	for h != 0 {
		g, h = h, g%h
	}
	return a / g * b
}

// Figure2Separations bundles the two ground-level separation
// experiments under the engine o: the two propositions are independent
// tasks, and Proposition 24's machine runs fan out through a nested Map
// of their own. Each Map spawns its own goroutines, so a parallel engine
// briefly runs up to pool()+1 tasks — a deliberate trade: these are a
// handful of coarse-grained runs, and GOMAXPROCS still bounds the running
// threads. The report is assembled in the fixed sequential order
// regardless of the engine.
func Figure2Separations(o search.Options) *Report {
	out := &Report{ID: "Figure 2", Title: "hierarchy separations at ground level"}
	type result struct {
		r   *Report
		err error
	}
	results := search.Map(o, 2, func(i int) result {
		if i == 0 {
			r, err := Proposition24(9, []*simulate.Machine{
				arbiters.Eulerian(),
				arbiters.AllEqual(),
				edgeGatherer(1),
				edgeGatherer(3),
				edgeGatherer(10), // even "full diameter" gathering is fooled
			}, o)
			return result{r: r, err: err}
		}
		r, err := Proposition26(24, 4, 3)
		return result{r: r, err: err}
	})
	for i, name := range []string{"Prop 24", "Prop 26"} {
		if results[i].err != nil {
			out.Rows = append(out.Rows, row(name, "no error", results[i].err))
		} else {
			out.Rows = append(out.Rows, results[i].r.Rows...)
		}
	}
	return out
}
