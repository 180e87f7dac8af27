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

// GameValue evaluates the alternating certificate game exhaustively over
// the given per-move domains (len(domains) must equal the level's number of
// alternations). It reports whether the first player to move — Eve for Σ
// levels, Adam for Π levels — achieves her/his objective: the game value is
// true iff
//
//	Q1 κ1 Q2 κ2 … : M(G, id, κ1·…·κℓ) ≡ accept
//
// with Q1 Q2 … the level's quantifier prefix.
//
// GameValue runs on the package default search engine (parallel across
// all CPUs); GameValueOpt selects the engine.
func (a *Arbiter) GameValue(g *graph.Graph, id graph.IDAssignment, domains []cert.Domain) (bool, error) {
	return a.GameValueOpt(g, id, domains, search.Default())
}

// GameValueOpt is GameValue under explicit search options: the outermost
// quantifier level whose space the engine considers worth splitting is
// handed to the worker pool (short-circuit Exists for Eve, ForAll for
// Adam), levels below it are enumerated sequentially within each worker,
// and every game leaf runs against a single simulate.Prepared instance
// so the per-(graph, id) setup is paid once for the whole game tree.
// Quantifier values are independent of visitation order, so
// GameValueOpt(…, Sequential()) and any parallel pool compute the same
// value — the core parity tests assert this under the race detector.
func (a *Arbiter) GameValueOpt(g *graph.Graph, id graph.IDAssignment, domains []cert.Domain, o search.Options) (bool, error) {
	prep, err := simulate.Prepare(g, id)
	if err != nil {
		return false, err
	}
	return a.GameValuePrepared(prep, domains, o)
}

// GameValuePrepared is GameValueOpt against an already-prepared
// simulation instance, so callers that evaluate many games on the same
// (graph, id) — notably the service layer's Prepared cache — skip the
// per-instance setup entirely. It runs the optimized engine without a
// memo table; GameValueEngine exposes the full configuration.
func (a *Arbiter) GameValuePrepared(prep *simulate.Prepared, domains []cert.Domain, o search.Options) (bool, error) {
	return a.GameValueEngine(prep, domains, Engine{Opts: o})
}

// GameValueEngine is the fully configurable evaluation entry point: the
// engine selects the worker pool, the memo table, and the optimization
// layers (see Engine). Every configuration computes the same game value.
func (a *Arbiter) GameValueEngine(prep *simulate.Prepared, domains []cert.Domain, e Engine) (bool, error) {
	if len(domains) != a.Level.Alternations {
		return false, fmt.Errorf("core: %d domains for level %v", len(domains), a.Level)
	}
	ev := newGameEval(a, prep, domains, e, false)
	return ev.eval(ev.newContext(nil), 1, e, true)
}

// gameEval carries the state shared by every worker of one game
// evaluation: the prepared simulation instance, the compiled per-level
// domains, the optimization-layer state derived from the Engine (memo
// seed, collected automorphisms, packed innermost enumerator, leaf
// buffer mode), and the first error raised by any leaf.
type gameEval struct {
	a     *Arbiter
	prep  *simulate.Prepared
	enums []*cert.Enum

	// seed is the memo key fingerprint ("" when memoization is off or
	// the machine is unnamed; see evalSeed).
	seed string
	// auts/autInv are the collected value-preserving automorphisms and
	// their inverses (nil when symmetry pruning is off; see sym.go).
	auts   [][]int
	autInv [][]int
	// packed enumerates the innermost quantifier domain as a mixed-radix
	// word (nil when the domain does not fit or bitsets are off).
	packed *cert.Packed
	// pooled selects leaf runs on reused buffers (simulate.RunAccepted);
	// reference mode runs leaves through simulate.Prepared.Run.
	pooled bool
	// leafPool hands strategy games one leaf buffer set per leaf (nil
	// for exhaustive games and in reference mode).
	leafPool *search.Scratch[*leafScratch]
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

// seqContext is the state of one sequential context of an exhaustive
// game: the top-level call, or one fan-out worker, which runs its share
// of the fanned-out level and everything below it one choice at a time.
// It is made once per context and passed down eval, evalLevel and
// evalPackedLeaves, so a leaf costs no checkout; its leaf buffers are
// made on its first leaf (see leafBuffers).
type seqContext struct {
	// moves is the full move vector: entries below the context's own
	// level alias the enclosing context's buffers (read-only while the
	// context runs), the rest are buffers the context owns.
	moves []cert.Assignment
	// leaf is the context's leaf buffers (nil until its first leaf, and
	// always nil in reference mode).
	leaf *leafScratch
}

// newGameEval compiles the domains and derives the optimization-layer
// state the engine enables. strategic marks a strategy-guided game,
// which never uses symmetry pruning: a Strategy observes node indices
// through the graph, so its replies need not be equivariant under the
// automorphisms, and orbit pruning of Adam's moves would be unsound.
func newGameEval(a *Arbiter, prep *simulate.Prepared, domains []cert.Domain, eng Engine, strategic bool) *gameEval {
	ev := &gameEval{a: a, prep: prep, enums: make([]*cert.Enum, len(domains)), counters: eng.Counters}
	//lint:coarse domain compilation bounded by the level's alternation depth
	for i, d := range domains {
		ev.enums[i] = d.Enum()
	}
	if l := len(ev.enums); l > 0 {
		if last := ev.enums[l-1]; !eng.NoBitset && last.Len() > 0 {
			ev.packed, _ = last.Pack()
		}
		if !eng.NoSymmetry && !strategic {
			ev.initSymmetry()
		}
		if eng.Memo != nil {
			ev.seed = evalSeed(a, prep, ev.enums, eng.Salt)
		}
	}
	ev.pooled = !eng.NoPool
	if ev.pooled && strategic {
		ev.leafPool = search.NewScratch(ev.newLeafScratch)
	}
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

// leaf executes the arbiter's machine on fully chosen certificates. The
// game levels are the unit of parallelism, so each leaf runs its nodes
// sequentially (identical results either way; see simulate). With
// buffers (ls non-nil) the run goes through
// simulate.Prepared.RunAccepted, which reruns only the nodes the
// change from the buffers' previous leaf reaches; reference mode (ls
// nil) pays the allocating Run path on every node.
func (ev *gameEval) leaf(ls *leafScratch, chosen []cert.Assignment) (bool, error) {
	if ls == nil {
		ev.count(int64(ev.prep.Graph().N()))
		res, err := ev.prep.Run(ev.a.Machine, cert.NodeLists(chosen...), simulate.Options{Sequential: true})
		if err != nil {
			return false, err
		}
		return res.Accepted(), nil
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
	return ok, err
}

// count adds one leaf that started nodeRuns nodes to the work tally.
func (ev *gameEval) count(nodeRuns int64) {
	if c := ev.counters; c != nil {
		c.Leaves.Add(1)
		c.NodeRuns.Add(nodeRuns)
	}
}

// eval evaluates quantifier levels i..ℓ in the sequential context c,
// whose c.moves[0..i-2] are the moves already decoded above. Subgames
// at the outer levels are served from the memo table when one is
// configured — the whole-game entry (i == 1, empty prefix) is the
// warm-path hit that makes repeated evaluations of the same game a
// single table lookup. par marks that no enclosing level has been fanned
// out yet (see evalLevel).
func (ev *gameEval) eval(c *seqContext, i int, e Engine, par bool) (bool, error) {
	if i > len(ev.enums) {
		return ev.leaf(ev.leafBuffers(c), c.moves)
	}
	if ev.seed != "" && i <= memoMaxLevel {
		return e.Memo.Do(e.Opts.Ctx, subkey(ev.seed, i, c.moves[:i-1]), func() (bool, error) {
			return ev.evalLevel(c, i, e, par)
		})
	}
	return ev.evalLevel(c, i, e, par)
}

// evalLevel enumerates quantifier level i. par marks that no enclosing
// level has been fanned out yet, so the first level the engine considers
// splittable claims the worker pool (levels with tiny spaces pass the
// pool down to the bigger levels beneath them); everything below a
// fan-out runs sequentially within its worker. At the outermost level
// choices that are not the lexicographic minimum of their automorphism
// orbit are skipped (value-preserving; see sym.go), and the innermost
// level runs on the packed mixed-radix enumerator when the domain fits
// a word.
func (ev *gameEval) evalLevel(c *seqContext, i int, e Engine, par bool) (bool, error) {
	existential := ev.a.Level.ExistentialAt(i)
	enum := ev.enums[i-1]
	space := enum.Space()
	sym := i == 1 && len(ev.autInv) > 0
	if par && search.Splittable(e.Opts, space) {
		// Fan this level out across the pool. c.moves[0..i-2] are shared
		// read-only (the enclosing sequential enumerators only decode
		// again after the pool drains); each worker is a sequential
		// context of its own, with buffers for this level and the ones
		// below it.
		prefix := c.moves[:i-1]
		newPred := func() search.WorkerPred {
			w := ev.newContext(prefix)
			return func(choices []int, start bool) bool {
				if start && w.leaf != nil {
					// A new prefix: its first leaf must not depend on
					// which prefix the worker ran before, so the work of
					// an evaluation is the same under any scheduling.
					w.leaf.sim.Reset()
				}
				if sym && ev.symSkip(choices) {
					// A pruned choice must not decide the quantifier: it
					// neither witnesses the ∃ nor refutes the ∀.
					return !existential
				}
				enum.Decode(choices, w.moves[i-1])
				v, err := ev.eval(w, i+1, e, false)
				if err != nil {
					ev.fail(err)
					// Short-circuit the enclosing quantifier so the pool
					// drains: a witness for ∃, a counterexample for ∀.
					return existential
				}
				return v
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
	if i == len(ev.enums) && ev.packed != nil && !sym {
		return ev.evalPackedLeaves(c, i, e, existential)
	}
	// Existential: succeed if some choice works. Universal: fail if
	// some choice fails.
	found := existential // value if enumeration exhausts: ¬∃ => false, ∀ => true
	var innerErr error
	complete := search.ForEach(space, func(choices []int) bool {
		// Mirror the ctx polling of the parallel branch so cancellation
		// reaches sequential evaluations too.
		if e.Opts.Ctx != nil {
			if innerErr = e.Opts.Ctx.Err(); innerErr != nil {
				return false
			}
		}
		if sym && ev.symSkip(choices) {
			return true
		}
		enum.Decode(choices, c.moves[i-1])
		v, err := ev.eval(c, i+1, e, par)
		if err != nil {
			innerErr = err
			return false
		}
		if existential && v {
			found = true
			return false // short-circuit ∃
		}
		if !existential && !v {
			found = false
			return false // short-circuit ∀
		}
		return true
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

// evalPackedLeaves enumerates the innermost quantifier level with the
// packed mixed-radix counter: every step rewrites only the certificate
// strings touched by the carry and goes straight to a leaf run, which is
// where a game evaluation spends almost all of its time.
func (ev *gameEval) evalPackedLeaves(c *seqContext, i int, e Engine, existential bool) (bool, error) {
	ls := ev.leafBuffers(c)
	var innerErr error
	complete := ev.packed.ForEach(c.moves[i-1], func(cert.Assignment) bool {
		// One cancellation poll per leaf, matching the unpacked walk (a
		// leaf is a full machine run, so the atomic load is noise).
		if e.Opts.Ctx != nil {
			if innerErr = e.Opts.Ctx.Err(); innerErr != nil {
				return false
			}
		}
		v, err := ev.leaf(ls, c.moves)
		if err != nil {
			innerErr = err
			return false
		}
		// Continue while the quantifier is undecided: ∃ until a witness,
		// ∀ until a counterexample.
		return v != existential
	})
	if innerErr != nil {
		return false, innerErr
	}
	if complete {
		return !existential, nil
	}
	return existential, nil
}

// strategyLeaf runs one strategy-game leaf on a leaf buffer set checked
// out for just this leaf: the move vector of a strategy game is rebuilt
// by append on every branch, so there is no sequential context to hold
// the buffers.
func (ev *gameEval) strategyLeaf(chosen []cert.Assignment) (bool, error) {
	if ev.leafPool == nil {
		return ev.leaf(nil, chosen)
	}
	ls, release := ev.leafPool.Get()
	defer release()
	return ev.leaf(ls, chosen)
}

// Strategy produces a certificate assignment for a player given the
// opponent's previous moves (moves[0] = κ1, …). Eve's constructive
// strategies from the paper's proofs (spanning trees, charges, colorings)
// implement this type.
//
// Implementations must be pure functions of their arguments: under a
// parallel engine a strategy below Adam's fanned-out universal level is
// invoked concurrently from several workers, and the moves entries may
// alias pooled buffers that are overwritten once the call returns — so a
// strategy must not share mutable state across calls and must not retain
// moves or its entries.
type Strategy func(g *graph.Graph, id graph.IDAssignment, moves []cert.Assignment) (cert.Assignment, error)

// StrategyGameValue evaluates the game with Eve's moves produced by
// strategies and Adam's moves enumerated exhaustively over domains.
// strategies[i] and domains[i] correspond to move i+1 and exactly one of
// them must be non-nil, matching the level's quantifier at that position
// (strategies for existential moves, domains for universal moves).
//
// The result true means Eve's strategies defeat every Adam play — which
// witnesses membership, since a winning strategy is in particular a
// witness for each ∃. The converse (false ⇒ non-membership) holds only
// when the strategies are optimal, as the paper's constructions are.
//
// StrategyGameValue runs on the package default search engine (parallel
// across all CPUs); StrategyGameValueOpt selects the engine.
func (a *Arbiter) StrategyGameValue(g *graph.Graph, id graph.IDAssignment, strategies []Strategy, domains []cert.Domain) (bool, error) {
	return a.StrategyGameValueOpt(g, id, strategies, domains, search.Default())
}

// StrategyGameValueOpt is StrategyGameValue under explicit search
// options. Eve's strategy moves are deterministic, so the game tree only
// branches at Adam's universal levels: the outermost universal level
// whose domain the engine considers worth splitting is handed to the
// worker pool (short-circuit ForAll), everything below it runs
// sequentially within each worker, and all leaves share one
// simulate.Prepared instance.
func (a *Arbiter) StrategyGameValueOpt(g *graph.Graph, id graph.IDAssignment, strategies []Strategy, domains []cert.Domain, o search.Options) (bool, error) {
	prep, err := simulate.Prepare(g, id)
	if err != nil {
		return false, err
	}
	return a.StrategyGameValuePrepared(prep, strategies, domains, o)
}

// StrategyGameValuePrepared is StrategyGameValueOpt against an
// already-prepared simulation instance (the graph and identifier
// assignment are taken from it), so repeated verifications of the same
// graph — the service layer's cache hit path — pay the per-(graph, id)
// setup only once.
func (a *Arbiter) StrategyGameValuePrepared(prep *simulate.Prepared, strategies []Strategy, domains []cert.Domain, o search.Options) (bool, error) {
	return a.StrategyGameValueEngine(prep, strategies, domains, Engine{Opts: o})
}

// StrategyGameValueEngine is StrategyGameValuePrepared under a full
// engine configuration. Strategy-guided games are memoized only as a
// whole (quantifier-prefix subgames depend on the opaque strategy
// closures) and only when the engine carries a non-empty Salt naming
// the strategies; they never use symmetry pruning (see newGameEval).
func (a *Arbiter) StrategyGameValueEngine(prep *simulate.Prepared, strategies []Strategy, domains []cert.Domain, e Engine) (bool, error) {
	l := a.Level.Alternations
	if len(strategies) != l || len(domains) != l {
		return false, fmt.Errorf("core: need %d strategy/domain slots", l)
	}
	ev := newGameEval(a, prep, domains, e, true)
	run := func() (bool, error) {
		return ev.strategyRec(prep.Graph(), prep.ID(), strategies, make([]cert.Assignment, 0, l), 1, e, true)
	}
	if ev.seed != "" && e.Salt != "" {
		// Level index 0 is reserved for whole strategy games, so the key
		// can never collide with an exhaustive subgame key (i >= 1) of
		// the same seed.
		return e.Memo.Do(e.Opts.Ctx, subkey(ev.seed, 0, nil), run)
	}
	return run()
}

// strategyRec evaluates move i of the strategy-guided game with the
// prefix chosen already played. par marks that no enclosing universal
// level has been fanned out yet, so this one may claim the pool.
func (ev *gameEval) strategyRec(g *graph.Graph, id graph.IDAssignment, strategies []Strategy, chosen []cert.Assignment, i int, e Engine, par bool) (bool, error) {
	l := len(ev.enums)
	if i > l {
		return ev.strategyLeaf(chosen)
	}
	if ev.a.Level.ExistentialAt(i) {
		if strategies[i-1] == nil {
			return false, fmt.Errorf("core: move %d is existential but has no strategy", i)
		}
		k, err := strategies[i-1](g, id, append([]cert.Assignment(nil), chosen...))
		if err != nil {
			return false, err
		}
		return ev.strategyRec(g, id, strategies, append(chosen, k), i+1, e, par)
	}
	if ev.enums[i-1].Len() == 0 {
		return false, fmt.Errorf("core: move %d is universal but has no domain", i)
	}
	enum := ev.enums[i-1]
	space := enum.Space()
	if par && search.Splittable(e.Opts, space) {
		// Fan this universal level out across the pool. Workers below it
		// run sequentially, each on its own copy of the move prefix.
		prefix := append([]cert.Assignment(nil), chosen...)
		scratch := search.NewScratch(func() cert.Assignment {
			return make(cert.Assignment, enum.Len())
		})
		ok, err := search.ForAll(e.Opts, space, func(choices []int) bool {
			buf, release := scratch.Get()
			defer release()
			enum.Decode(choices, buf)
			child := make([]cert.Assignment, 0, l)
			child = append(append(child, prefix...), buf)
			v, err := ev.strategyRec(g, id, strategies, child, i+1, e, false)
			if err != nil {
				ev.fail(err)
				return false // a counterexample stops the ForAll
			}
			return v
		})
		if ev.err != nil {
			return false, ev.err
		}
		if err != nil {
			return false, err
		}
		return ok, nil
	}
	if i == l && ev.packed != nil {
		// Innermost universal level: packed enumeration straight to the
		// leaves, rewriting only the carry-touched certificate strings.
		buf := make(cert.Assignment, enum.Len())
		var innerErr error
		complete := ev.packed.ForEach(buf, func(cert.Assignment) bool {
			if e.Opts.Ctx != nil {
				if innerErr = e.Opts.Ctx.Err(); innerErr != nil {
					return false
				}
			}
			v, err := ev.strategyRec(g, id, strategies, append(chosen, buf), i+1, e, par)
			if err != nil {
				innerErr = err
				return false
			}
			return v // a counterexample stops the walk
		})
		if innerErr != nil {
			return false, innerErr
		}
		return complete, nil
	}
	buf := make(cert.Assignment, enum.Len())
	ok := true
	var innerErr error
	search.ForEach(space, func(choices []int) bool {
		// The parallel fan-out polls the engine ctx inside search.ForAll;
		// this sequential walk must poll it too so a canceled request
		// aborts regardless of the engine (leaves are machine runs, so
		// one check per iteration is cheap).
		if e.Opts.Ctx != nil {
			if innerErr = e.Opts.Ctx.Err(); innerErr != nil {
				return false
			}
		}
		enum.Decode(choices, buf)
		v, err := ev.strategyRec(g, id, strategies, append(chosen, buf), i+1, e, par)
		if err != nil {
			innerErr = err
			return false
		}
		if !v {
			ok = false
			return false
		}
		return true
	})
	if innerErr != nil {
		return false, innerErr
	}
	return ok, nil
}

// Product runs several machines in lockstep on the same graph: each round,
// every component machine performs its round, and the component messages
// are packed into tuple messages (see tuple.go). The product halts at a
// node when all components have halted there. combine merges the
// component outputs into the product's output; the default conjoins
// verdicts ("1" iff all "1").
func Product(name string, combine func(outputs []string) string, machines ...*simulate.Machine) *simulate.Machine {
	if combine == nil {
		combine = func(outputs []string) string {
			for _, o := range outputs {
				if o != "1" {
					return "0"
				}
			}
			return "1"
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
