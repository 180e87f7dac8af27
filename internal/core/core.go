// Package core implements the paper's primary contribution: the locally
// polynomial hierarchy {Σ^lp_ℓ, Π^lp_ℓ} of Section 4. A graph property L
// belongs to Σ^lp_ℓ when some locally polynomial machine M (the arbiter)
// satisfies, for every graph G and rid-locally unique identifier
// assignment id,
//
//	G ∈ L  ⇔  ∃κ1 ∀κ2 … Qκℓ : M(G, id, κ1·…·κℓ) ≡ accept,
//
// with all quantifiers ranging over (r,p)-bounded certificate assignments.
// Π^lp_ℓ starts with a universal quantifier instead.
//
// The package provides:
//
//   - Arbiter: a machine together with its level, identifier radius and
//     certificate bound;
//   - exhaustive game evaluation over finite certificate domains (for the
//     small instances used in tests and experiments);
//   - strategy-guided evaluation, where Eve's moves are produced by the
//     constructive strategies from the paper's proofs;
//   - machine combinators (Product, WithPrecondition) used to realize the
//     constructions in the proof of Lemma 11 (restrictive arbiters).
package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/simulate"
)

// Class names for the lowest hierarchy levels, for display purposes.
const (
	ClassLP     = "LP"     // Σ^lp_0 = Π^lp_0
	ClassNLP    = "NLP"    // Σ^lp_1
	ClassCoLP   = "coLP"   // complement of LP
	ClassCoNLP  = "coNLP"  // complement of NLP
	ClassPi1Lp  = "Π^lp_1" // first universal level
	ClassSig3Lp = "Σ^lp_3"
)

// Level identifies a class of the locally polynomial hierarchy.
type Level struct {
	// Alternations is ℓ, the number of certificate assignments.
	Alternations int
	// FirstExistential selects Σ^lp_ℓ (true, Eve moves first) or Π^lp_ℓ
	// (false, Adam moves first). Irrelevant when Alternations == 0.
	FirstExistential bool
}

// Sigma returns the level Σ^lp_ℓ.
func Sigma(l int) Level { return Level{Alternations: l, FirstExistential: true} }

// Pi returns the level Π^lp_ℓ.
func Pi(l int) Level { return Level{Alternations: l, FirstExistential: false} }

// String renders the level, e.g. "Σ^lp_3".
func (l Level) String() string {
	if l.Alternations == 0 {
		return "LP"
	}
	if l.FirstExistential {
		return fmt.Sprintf("Σ^lp_%d", l.Alternations)
	}
	return fmt.Sprintf("Π^lp_%d", l.Alternations)
}

// ExistentialAt reports whether the i-th certificate assignment (1-based)
// is chosen by Eve (existentially quantified).
func (l Level) ExistentialAt(i int) bool {
	if l.FirstExistential {
		return i%2 == 1
	}
	return i%2 == 0
}

// Arbiter bundles a locally polynomial machine with the parameters under
// which it arbitrates a property: the level, the identifier radius rid,
// and the (r,p) certificate bound.
type Arbiter struct {
	Machine  *simulate.Machine
	Level    Level
	RadiusID int
	Bound    cert.Bound
}

// Run executes the arbiter's machine under the given certificate
// assignments and reports unanimous acceptance.
func (a *Arbiter) Run(g *graph.Graph, id graph.IDAssignment, assigns ...cert.Assignment) (bool, error) {
	res, err := simulate.Run(a.Machine, g, id, cert.NodeLists(assigns...), simulate.Options{})
	if err != nil {
		return false, err
	}
	return res.Accepted(), nil
}

// GameValueEngine evaluates the alternating certificate game
// exhaustively over the given per-move domains against an
// already-prepared simulation instance (simulate.Prepare(g, id)).
// domains[i] is the domain of move i+1, so len(domains) must equal the
// level's number of alternations, and every domain must give one
// maximal certificate length per node of the prepared graph. It reports
// whether the first player to move — Eve for Σ levels, Adam for Π
// levels — achieves her/his objective: the game value is true iff
//
//	Q1 κ1 Q2 κ2 … : M(G, id, κ1·…·κℓ) ≡ accept
//
// with Q1 Q2 … the level's quantifier prefix.
//
// The engine selects the worker pool, the memo table and the
// optimization layers (see Engine); the zero Engine{} is the package
// default (parallel across all CPUs), and Reference() is the oracle
// every other configuration is tested against. The outermost
// quantifier level whose space the engine considers worth splitting is
// handed to the worker pool (short-circuit Exists for Eve, ForAll for
// Adam), levels below it are enumerated sequentially within each
// worker, and every game leaf runs against prep, so the per-(graph, id)
// setup is paid once for the whole game tree and callers that evaluate
// many games on the same instance pay it once for all of them.
// Quantifier values are independent of visitation order, so every
// configuration computes the same game value — the core parity tests
// assert this under the race detector.
func (a *Arbiter) GameValueEngine(prep *simulate.Prepared, domains []cert.Domain, e Engine) (bool, error) {
	if len(domains) != a.Level.Alternations {
		return false, fmt.Errorf("core: %d domains for level %v", len(domains), a.Level)
	}
	//lint:coarse domain check bounded by the level's alternation depth
	for i := range domains {
		if err := checkDomain(prep, i+1, domains[i]); err != nil {
			return false, err
		}
	}
	return newGameEval(a, prep, domains, e, nil).run(e)
}

// checkDomain rejects a domain of move i that does not give exactly one
// maximal certificate length per node of the prepared graph: a short one
// would index past its end at some leaf, a long one would enumerate
// certificates for nodes that do not exist.
func checkDomain(prep *simulate.Prepared, i int, d cert.Domain) error {
	if n := prep.Graph().N(); len(d.MaxLen) != n {
		return fmt.Errorf("core: move %d domain covers %d nodes, graph has %d", i, len(d.MaxLen), n)
	}
	return nil
}

// gameEval carries the state shared by every worker of one game
// evaluation: the prepared simulation instance, the compiled per-level
// domains, Eve's strategies in a strategy-guided game, the
// optimization-layer state derived from the Engine (memo seed, leaf
// buffer mode), and the first error raised by any leaf.
type gameEval struct {
	a     *Arbiter
	prep  *simulate.Prepared
	enums []*cert.Enum
	// strategies plays Eve's moves of a strategy-guided game (nil in an
	// exhaustive game; see eval).
	strategies []Strategy

	// seed is the whole game's memo key ("" when memoization is off,
	// the machine is unnamed, or a strategy game has no Salt; see
	// evalSeed).
	seed string
	// pooled selects leaf runs on reused buffers (simulate.RunAccepted);
	// reference mode runs leaves through simulate.Prepared.Run.
	pooled bool
	// counters receives the work tally (nil: none; see Engine.Counters).
	counters *Counters

	errOnce sync.Once
	err     error
}

// leafScratch is one leaf-execution buffer set: the per-node
// certificate lists (lists[u] aliases flat) and the simulate scratch.
type leafScratch struct {
	lists [][]string
	flat  []string
	sim   *simulate.Scratch
}

// seqContext is the state of one sequential context of a game: the
// top-level call, or one fan-out worker, which runs its share
// of the fanned-out level and everything below it one choice at a time.
// It is made once per context and passed down eval and evalLevel, so a
// leaf costs no checkout; its leaf buffers are made on its first leaf
// (see leafBuffers).
type seqContext struct {
	// moves is the full move vector: entries below the context's own
	// level alias the enclosing context's buffers (read-only while the
	// context runs), the rest are buffers the context owns or, at a
	// strategy level, Eve's latest reply.
	moves []cert.Assignment
	// leaf is the context's leaf buffers (nil until its first leaf, and
	// always nil in reference mode).
	leaf *leafScratch
}

// newGameEval compiles the domains and derives the optimization-layer
// state the engine enables: the memo seed and the leaf buffer mode.
// strategies is nil for an exhaustive game.
func newGameEval(a *Arbiter, prep *simulate.Prepared, domains []cert.Domain, eng Engine, strategies []Strategy) *gameEval {
	ev := &gameEval{a: a, prep: prep, enums: make([]*cert.Enum, len(domains)), strategies: strategies, counters: eng.Counters}
	//lint:coarse domain compilation bounded by the level's alternation depth
	for i, d := range domains {
		ev.enums[i] = d.Enum()
	}
	if len(ev.enums) > 0 && eng.Memo != nil {
		ev.seed = evalSeed(a, prep, ev.enums, eng.Salt, strategies != nil)
	}
	ev.pooled = !eng.NoPool
	return ev
}

// newLeafScratch allocates one leaf buffer set sized for the instance.
func (ev *gameEval) newLeafScratch() *leafScratch {
	n := ev.prep.Graph().N()
	l := len(ev.enums)
	ls := &leafScratch{
		lists: make([][]string, n),
		flat:  make([]string, n*l),
		sim:   ev.prep.NewScratch(),
	}
	for u := 0; u < n; u++ {
		ls.lists[u] = ls.flat[u*l : (u+1)*l : (u+1)*l]
	}
	return ls
}

// newContext starts a sequential context below the given move prefix:
// it shares the prefix's buffers and owns one buffer per level beneath.
// Its leaf buffers wait for its first leaf.
func (ev *gameEval) newContext(prefix []cert.Assignment) *seqContext {
	c := &seqContext{moves: make([]cert.Assignment, len(ev.enums))}
	copy(c.moves, prefix)
	//lint:coarse allocation pass bounded by the level's alternation depth
	for j := len(prefix); j < len(ev.enums); j++ {
		c.moves[j] = make(cert.Assignment, ev.enums[j].Len())
	}
	return c
}

// leafBuffers returns c's leaf buffers, making them on the context's
// first leaf, so a warm whole-game memo hit and a context whose level
// fans out allocate none (nil in reference mode).
func (ev *gameEval) leafBuffers(c *seqContext) *leafScratch {
	if ev.pooled && c.leaf == nil {
		c.leaf = ev.newLeafScratch()
	}
	return c.leaf
}

func (ev *gameEval) fail(err error) {
	ev.errOnce.Do(func() { ev.err = err })
}

// keepAll is the keep of a value that vouches for no other choice: an
// outer or strategy level's subgame, an error, or a reference-mode
// leaf. search clamps it to the space's Len.
const keepAll = math.MaxInt

// leaf executes the arbiter's machine on fully chosen certificates and
// returns its verdict with its keep: the innermost level's choices at
// nodes keep and beyond do not change the verdict (see
// simulate.Scratch.Keep). The game levels are the unit of parallelism;
// a leaf runs its nodes one after another. With buffers (ls non-nil)
// the run goes through simulate.Prepared.RunAccepted, which reruns only
// the nodes the change from the buffers' previous leaf reaches;
// reference mode (ls nil) pays the allocating Run path on every node
// and vouches for no other leaf.
func (ev *gameEval) leaf(ls *leafScratch, chosen []cert.Assignment) (bool, int, error) {
	if ls == nil {
		ev.count(int64(ev.prep.Graph().N()))
		res, err := ev.prep.Run(ev.a.Machine, cert.NodeLists(chosen...), simulate.Options{})
		if err != nil {
			return false, keepAll, err
		}
		return res.Accepted(), keepAll, nil
	}
	var lists [][]string
	if len(chosen) > 0 {
		lists = ls.lists
		for u := range lists {
			row := lists[u]
			for j, a := range chosen {
				row[j] = a[u]
			}
		}
	}
	runs := ls.sim.NodeRuns()
	ok, err := ev.prep.RunAccepted(ev.a.Machine, lists, 0, ls.sim)
	ev.count(ls.sim.NodeRuns() - runs)
	return ok, ls.sim.Keep(), err
}

// count adds one leaf that started nodeRuns nodes to the work tally.
func (ev *gameEval) count(nodeRuns int64) {
	if c := ev.counters; c != nil {
		c.Leaves.Add(1)
		c.NodeRuns.Add(nodeRuns)
	}
}

// run evaluates the whole game. With a memo seed, the game is one
// table entry: a warm lookup answers it without building a context.
func (ev *gameEval) run(e Engine) (bool, error) {
	play := func() (bool, error) {
		v, _, err := ev.eval(ev.newContext(nil), 1, e, true)
		return v, err
	}
	if ev.seed == "" {
		return play()
	}
	return e.Memo.Do(e.Opts.Ctx, ev.seed, play)
}

// eval evaluates quantifier levels i..ℓ in the sequential context c,
// whose c.moves[0..i-2] are the moves already made above. par marks
// that no enclosing level has been fanned out yet (see evalLevel). The
// int is the keep the walk of level i−1 may use: a leaf's (see leaf)
// past the innermost level, keepAll above it.
//
// In a strategy-guided game, Eve's level is a level with one choice:
// her strategy's reply to the moves above it. It never claims the
// pool, so it passes par down unchanged.
func (ev *gameEval) eval(c *seqContext, i int, e Engine, par bool) (bool, int, error) {
	if i > len(ev.enums) {
		return ev.leaf(ev.leafBuffers(c), c.moves)
	}
	if ev.strategies != nil && ev.a.Level.ExistentialAt(i) {
		// The full slice expression stops a strategy that appends from
		// overwriting slot i−1.
		k, err := ev.strategies[i-1](ev.prep.Graph(), ev.prep.ID(), c.moves[:i-1:i-1])
		if err != nil {
			return false, keepAll, err
		}
		c.moves[i-1] = k
		// The reply depends on the whole prefix, so no leaf's keep may
		// pass through this level to the walk above it.
		v, _, err := ev.eval(c, i+1, e, par)
		return v, keepAll, err
	}
	v, err := ev.evalLevel(c, i, e, par)
	return v, keepAll, err
}

// evalLevel enumerates quantifier level i. par marks that no enclosing
// level has been fanned out yet, so the first level the engine considers
// splittable claims the worker pool (levels with tiny spaces pass the
// pool down to the bigger levels beneath them); everything below a
// fan-out runs sequentially within its worker. Claiming the pool does
// not mean using it: the search engine walks the level in order first,
// with one context, and fans out only the choices left once that walk
// has spent its budget (see search.ExistsPerWorker), so a level its
// keeps settle in a few leaves, such as Lemma 11's relativized P7, plays
// the sequential engine's leaves and starts no goroutine. The
// innermost level backjumps: after a leaf whose value does not decide the
// quantifier, the walk skips every choice that agrees with it on the
// nodes below the leaf's keep, since each of those has the same value.
// An innermost universal level with leaf buffers, one position per
// node and more choices than nodes is walked once per node instead (see
// splitLevel), unless some node's ball holds every node: each node's
// walk visits a leaf at least, so a level of n choices or fewer is
// walked as a whole.
func (ev *gameEval) evalLevel(c *seqContext, i int, e Engine, par bool) (bool, error) {
	existential := ev.a.Level.ExistentialAt(i)
	enum, n := ev.enums[i-1], ev.prep.Graph().N()
	space := enum.Space()
	if !existential && i == len(ev.enums) && ev.pooled && enum.Len() == n && space.MoreThan(n) {
		if v, split, err := ev.splitLevel(c, i, e); split || err != nil {
			return v, err
		}
	}
	if par && search.Splittable(e.Opts, space) {
		// Fan this level out across the pool. c.moves[0..i-2] are shared
		// read-only (the enclosing sequential enumerators only decode
		// again after the pool drains); each worker is a sequential
		// context of its own, with buffers for this level and the ones
		// below it.
		prefix := c.moves[:i-1]
		newPred := func() search.WorkerPred {
			w := ev.newContext(prefix)
			// Made now, not on the worker's first leaf: a pool worker
			// may find every prefix claimed, and an evaluation's
			// allocations must not depend on that.
			ev.leafBuffers(w)
			return func(choices []int, start bool) (bool, int) {
				if start && w.leaf != nil {
					// A new walk: its first leaf must not depend on which
					// prefix the worker ran before, so the work of an
					// evaluation is the same under any scheduling.
					w.leaf.sim.Reset()
				}
				enum.Decode(choices, w.moves[i-1])
				v, keep, err := ev.eval(w, i+1, e, false)
				if err != nil {
					ev.fail(err)
					// Short-circuit the enclosing quantifier so the pool
					// drains: a witness for ∃, a counterexample for ∀.
					return existential, keepAll
				}
				return v, keep
			}
		}
		var val bool
		var err error
		if existential {
			val, err = search.ExistsPerWorker(e.Opts, space, newPred)
		} else {
			val, err = search.ForAllPerWorker(e.Opts, space, newPred)
		}
		if ev.err != nil {
			return false, ev.err
		}
		if err != nil {
			return false, err
		}
		return val, nil
	}
	// Existential: succeed if some choice works. Universal: fail if
	// some choice fails.
	found := existential // value if enumeration exhausts: ¬∃ => false, ∀ => true
	var innerErr error
	complete := search.ForEachPruned(space, func(choices []int) (bool, int) {
		// Mirror the ctx polling of the parallel branch so cancellation
		// reaches sequential evaluations too.
		if e.Opts.Ctx != nil {
			if innerErr = e.Opts.Ctx.Err(); innerErr != nil {
				return false, 0
			}
		}
		enum.Decode(choices, c.moves[i-1])
		v, keep, err := ev.eval(c, i+1, e, par)
		if err != nil {
			innerErr = err
			return false, 0
		}
		if existential && v {
			found = true
			return false, 0 // short-circuit ∃
		}
		if !existential && !v {
			found = false
			return false, 0 // short-circuit ∀
		}
		return true, keep
	})
	if innerErr != nil {
		return false, innerErr
	}
	if complete {
		// Enumeration exhausted: ∃ failed, or ∀ succeeded.
		return !existential, nil
	}
	return found, nil
}

// splitLevel evaluates the innermost universal level i one node at a
// time. Acceptance is unanimous, so ∀κ ∧_u φ_u(κ) = ∧_u ∀κ φ_u(κ),
// where φ_u(κ) is node u's verdict. A node that halts in round h has
// read only the certificates in its ball B(u, h−1), so u's walk visits
// the level's choices in u's ball order (simulate.Prepared.BallOrder)
// and, after each leaf every node accepts, keeps the prefix that is u's
// ball: every choice that agrees with the leaf there gives u the same
// verdict and halting round. A leaf some node rejects is a
// counterexample and ends the level as false. Nothing below the
// innermost level reads the choices, so no strategy reply is skipped
// with them.
//
// The walks run one after another, and each continues on the leaf
// trace the walk before it left, so their work is the same under any
// scheduling. split is false, and the caller walks the level over all
// nodes at once, when some leaf's ball held every node: that node's
// walk would skip nothing, so it alone would cost what the plain walk
// does. The walks allocate nothing past their buffers, made once per
// call.
func (ev *gameEval) splitLevel(c *seqContext, i int, e Engine) (val, split bool, err error) {
	enum, k := ev.enums[i-1], c.moves[i-1]
	n := enum.Len()
	order, dist, cur := make([]int32, n), make([]int32, n), make([]int, n)
	space := search.Space{Len: n, Size: func(p int) int { return enum.NumOptions(int(order[p])) }}
	ls := ev.leafBuffers(c)
	//lint:coarse each node's walk polls the context on every leaf
	for u := 0; u < n; u++ {
		ev.prep.BallOrder(u, order, dist)
		all := false // a leaf's ball for u held every node
		holds := search.ForEachPrunedOn(space, cur, func(choices []int) (bool, int) {
			if e.Opts.Ctx != nil {
				if err = e.Opts.Ctx.Err(); err != nil {
					return false, 0
				}
			}
			enum.DecodeOrdered(choices, order, k)
			var ok bool
			if ok, _, err = ev.leaf(ls, c.moves); err != nil || !ok {
				return false, 0
			}
			r := ls.sim.Halt(u) - 1
			keep := sort.Search(n, func(p int) bool { return int(dist[order[p]]) > r })
			all = keep == n
			return !all, keep
		})
		if !holds {
			return false, !all, err
		}
	}
	return true, true, nil
}

// Strategy produces a certificate assignment for a player given the
// opponent's previous moves (moves[0] = κ1, …). Eve's constructive
// strategies from the paper's proofs (spanning trees, charges, colorings)
// implement this type.
//
// Implementations must be pure functions of their arguments: under a
// parallel engine a strategy below Adam's fanned-out universal level is
// invoked concurrently from several workers, and moves and its entries
// alias the evaluation's move buffers, which are overwritten once the
// call returns — so a strategy must not share mutable state across calls
// and must not retain moves or its entries. moves has no spare capacity,
// so appending to it copies.
type Strategy func(g *graph.Graph, id graph.IDAssignment, moves []cert.Assignment) (cert.Assignment, error)

// StrategyGameValueEngine evaluates the game with Eve's moves produced
// by strategies and Adam's moves enumerated exhaustively over domains,
// against an already-prepared simulation instance (the graph and
// identifier assignment are taken from it). strategies[i] and
// domains[i] correspond to move i+1: existential moves need a strategy
// (their domain slot is unused and may be {}), universal moves need a
// domain with one maximal certificate length per node.
//
// The result true means Eve's strategies defeat every Adam play — which
// witnesses membership, since a winning strategy is in particular a
// witness for each ∃. The converse (false ⇒ non-membership) holds only
// when the strategies are optimal, as the paper's constructions are.
//
// It walks the same evaluator as GameValueEngine, with each of Eve's
// levels cut down to her strategy's reply (see eval): the game tree
// only branches at Adam's universal levels, and the outermost one whose
// domain the engine considers worth splitting is handed to the worker
// pool (short-circuit ForAll). Repeated verifications of the same graph
// — the service layer's cache hit path — pay the per-(graph, id) setup
// only once. Strategy-guided games are memoized only when the engine
// carries a non-empty Salt naming the strategies (see evalSeed).
func (a *Arbiter) StrategyGameValueEngine(prep *simulate.Prepared, strategies []Strategy, domains []cert.Domain, e Engine) (bool, error) {
	l := a.Level.Alternations
	if len(strategies) != l || len(domains) != l {
		return false, fmt.Errorf("core: need %d strategy/domain slots", l)
	}
	//lint:coarse slot check bounded by the level's alternation depth
	for i := 1; i <= l; i++ {
		if !a.Level.ExistentialAt(i) {
			if err := checkDomain(prep, i, domains[i-1]); err != nil {
				return false, err
			}
		} else if strategies[i-1] == nil {
			return false, fmt.Errorf("core: move %d is existential but has no strategy", i)
		}
	}
	return newGameEval(a, prep, domains, e, strategies).run(e)
}

// Product runs several machines in lockstep on the same graph: each round,
// every component machine performs its round, and the component messages
// are packed into tuple messages (see tuple.go). The product halts at a
// node when all components have halted there. combine merges the
// component outputs into the product's output; the default conjoins
// verdicts ("1" iff all "1").
//
// Under the default, a rejecting component rejects the product, so the
// product passes on the blame of its first component that rejected in
// round 2 or later and names a port (see simulate.Machine.Blame): the
// component sees exactly the messages it would see alone, and the
// product halts no earlier than it, so the component's region lies
// within the product's. A custom combine may accept over a rejecting
// component, so such a product declares no Blame.
func Product(name string, combine func(outputs []string) string, machines ...*simulate.Machine) *simulate.Machine {
	var blame func(st any) int
	if combine == nil {
		combine = func(outputs []string) string {
			for _, o := range outputs {
				if o != "1" {
					return "0"
				}
			}
			return "1"
		}
		blame = func(st any) int {
			t := st.(*tupleNode)
			for i, m := range machines {
				c := t.comps[i]
				if m.Blame == nil || c.done < 2 || m.Output(c.state) == "1" {
					continue
				}
				if j := m.Blame(c.state); j >= 0 {
					return j
				}
			}
			return -1
		}
	}
	return &simulate.Machine{
		Name: name,
		Init: func(in simulate.Input) any {
			t := &tupleNode{}
			t.init(machines, 0, in)
			return t
		},
		Round: func(st any, round int, recv []string) ([]string, bool) {
			t := st.(*tupleNode)
			for j, msg := range recv {
				t.split(j, msg)
			}
			for i, m := range machines {
				t.step(i, m, round)
			}
			return t.pack(), t.allHalted()
		},
		Output: func(st any) string {
			t := st.(*tupleNode)
			outs := make([]string, len(machines))
			for i, m := range machines {
				outs[i] = m.Output(t.comps[i].state)
			}
			return combine(outs)
		},
		Blame: blame,
	}
}

// WithPrecondition implements the first step of the Lemma 11 conversion:
// given a machine main operating on graphs of an LP-property K and an
// LP-decider kDecider for K, it returns a machine on arbitrary graphs that
// accepts iff both accept — so the combined machine accepts exactly
// L ∩ K when main arbitrates L on K.
func WithPrecondition(main, kDecider *simulate.Machine) *simulate.Machine {
	return Product(main.Name+"|pre:"+kDecider.Name, nil, main, kDecider)
}
