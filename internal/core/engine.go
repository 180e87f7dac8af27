package core

import (
	"sync/atomic"

	"repro/internal/search"
)

// Engine configures one game evaluation: the search options of the
// worker pool plus the two optimization layers on top of it, the
// whole-game memo (Memo) and pooled leaves (on unless NoPool).
// Engine{Opts: o} is what GameValueOpt and StrategyGameValueOpt run;
// Reference() turns every layer off and is the equivalence baseline the
// core parity and property tests compare against.
//
// Quantifier values are independent of visitation order and every layer
// below is value-preserving (see DESIGN.md, "Game-engine optimization"),
// so all Engine configurations compute the same game value; they differ
// only in how much of the game tree they actually visit.
type Engine struct {
	// Opts selects the search engine (worker pool, split depth, context).
	// Opts.Ctx is the evaluation's cancellation port: every enumeration
	// loop of the engine polls it, including the memo paths.
	Opts search.Options

	// Memo, when non-nil, memoizes whole-game values under single-flight
	// semantics, keyed by graph content, identifiers, machine name,
	// level, domain shape, Salt, and whether the game is exhaustive or
	// strategy-guided (see evalSeed). No subgame below the whole game is
	// stored. Machines with an empty Name are never memoized (the name
	// stands in for the machine's semantics in the key; see Memo).
	Memo *Memo

	// Salt is mixed into every memo key. Callers memoizing
	// strategy-guided games must set it to something that identifies the
	// strategies (they are opaque closures, invisible to the key);
	// strategy games with an empty Salt are not memoized at all.
	Salt string

	// NoPool disables pooled leaf execution (simulate.RunAccepted) and
	// runs every leaf through the allocating simulate.Prepared.Run path,
	// which reports no keep, so the walks neither backjump nor split an
	// innermost universal level per node.
	NoPool bool

	// Counters, when non-nil, receives the evaluation's work tally. It
	// only observes: an evaluation does the same work with or without it.
	Counters *Counters
}

// Counters tallies the work of game evaluations (see Engine.Counters).
// Several evaluations may share one.
type Counters struct {
	// Leaves counts machine executions: one per game leaf visited.
	Leaves atomic.Int64
	// NodeRuns counts the nodes those executions started from Init.
	// Incremental leaves (simulate.Prepared.RunAccepted) restart only the
	// nodes whose certificates or received messages changed since the
	// previous leaf, so it is at most Leaves × n.
	NodeRuns atomic.Int64
}

// Reference returns the unoptimized engine: single-threaded search, no
// memo, no buffer pooling (so no incremental leaves, no backjumping and
// no per-node walks).
// It is the trusted baseline every optimization layer is
// equivalence-tested against — in the ProCoS sense, the specification
// the optimized engine must provably refine.
func Reference() Engine {
	return Engine{Opts: search.Sequential(), NoPool: true}
}
