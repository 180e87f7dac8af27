// Package service is the operation layer shared by cmd/lph and the lphd
// HTTP server: one catalog of decidable properties, verifiable
// properties, reductions, and games, with one implementation per
// operation, so the CLI and the service provably run identical code
// paths. Operations take an explicit search.Options — the per-request
// worker budget and cancellation context — and run against a
// simulate.Prepared instance, which the server amortizes across requests
// through the Cache and the CLI builds once per invocation via Prepare.
package service

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/arbiters"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/games"
	"repro/internal/graph"
	"repro/internal/props"
	"repro/internal/reduce"
	"repro/internal/search"
	"repro/internal/simulate"
)

// RadiusID is the identifier locality every operation runs under: all
// catalog machines and strategies require 1-locally unique identifiers.
const RadiusID = 1

// ErrUnknownName is wrapped by operations handed a name outside their
// catalog; callers map it to a usage error (CLI exit 2, HTTP 400).
var ErrUnknownName = errors.New("unknown name")

// Prepare computes the simulation instance the operations run against:
// the canonical RadiusID-locally unique identifier assignment plus the
// per-(graph, id) setup of simulate.Prepare. The server caches the
// result keyed by g.Hash() (see Cache); the identifier assignment is a
// deterministic function of the graph, so equal hashes yield
// interchangeable instances.
func Prepare(g *graph.Graph) (*simulate.Prepared, error) {
	return simulate.Prepare(g, graph.SmallLocallyUnique(g, RadiusID))
}

// ctxErr returns the engine context's error, if a context is set and
// already done. Operations whose machinery does not poll the context
// internally (Decide's single machine run, Reduce's transformation)
// check it up front so canceled requests fail fast and uniformly.
func ctxErr(o search.Options) error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// sortedKeys returns the catalog names in deterministic order for usage
// messages and the stats endpoint.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// decideMachines is the catalog behind Decide.
func decideMachines() map[string]*simulate.Machine {
	return map[string]*simulate.Machine{
		"all-selected": arbiters.AllSelected(),
		"eulerian":     arbiters.Eulerian(),
		"all-equal":    arbiters.AllEqual(),
	}
}

// DecideNames lists the decidable LP properties.
func DecideNames() []string { return sortedKeys(decideMachines()) }

// HasDecide reports whether name is in the decide catalog. The server
// consults it before paying for graph preparation, so requests with a
// bogus name never occupy a cache slot.
func HasDecide(name string) bool {
	_, ok := decideMachines()[name]
	return ok
}

// Decide runs the named locally polynomial decider on the prepared
// instance and reports unanimous acceptance. A single machine run has
// no fan-out, so of the engine options only the context is honored: a
// done context aborts before the run.
func Decide(prep *simulate.Prepared, name string, o search.Options) (bool, error) {
	m, ok := decideMachines()[name]
	if !ok {
		return false, fmt.Errorf("%w: LP property %q", ErrUnknownName, name)
	}
	if err := ctxErr(o); err != nil {
		return false, err
	}
	res, err := prep.Run(m, nil, simulate.Options{})
	if err != nil {
		return false, err
	}
	return res.Accepted(), nil
}

// DecideMemo is Decide through the transposition table: the verdict is
// keyed by catalog name and graph content hash, which suffices because
// Prepare derives the identifier assignment deterministically from the
// graph and catalog machines are deterministic. A nil memo falls back
// to Decide; errors are never cached (see core.Memo).
func DecideMemo(prep *simulate.Prepared, name string, o search.Options, m *core.Memo) (bool, error) {
	if m == nil {
		return Decide(prep, name, o)
	}
	key := "decide/" + name + "/" + prep.Graph().Hash()
	return m.Do(o.Ctx, key, func() (bool, error) { return Decide(prep, name, o) })
}

// verifier bundles the arbiter and Eve's strategies behind one
// verifiable property.
type verifier struct {
	arb        func() *core.Arbiter
	strategies func() []core.Strategy
	domains    func(g *graph.Graph) []cert.Domain
}

// verifiers is the catalog behind Verify, one entry per certificate game
// the paper equips with an explicit Eve strategy.
func verifiers() map[string]verifier {
	kcol := func(k int) verifier {
		return verifier{
			arb: func() *core.Arbiter {
				return &core.Arbiter{Machine: arbiters.KColorable(k), Level: core.Sigma(1),
					RadiusID: RadiusID, Bound: cert.Bound{R: 1, P: cert.Polynomial{0, 2}}}
			},
			strategies: func() []core.Strategy { return []core.Strategy{arbiters.ColoringStrategy(k)} },
			domains:    func(*graph.Graph) []cert.Domain { return []cert.Domain{{}} },
		}
	}
	uniform := func(g *graph.Graph) []cert.Domain {
		return []cert.Domain{{}, cert.UniformDomain(g.N(), 1), {}}
	}
	return map[string]verifier{
		"2-colorable": kcol(2),
		"3-colorable": kcol(3),
		"4-colorable": kcol(4),
		"sat-graph": {
			arb: func() *core.Arbiter {
				return &core.Arbiter{Machine: arbiters.SatGraph(), Level: core.Sigma(1),
					RadiusID: RadiusID, Bound: cert.Bound{R: 1, P: cert.Polynomial{0, 4}}}
			},
			strategies: func() []core.Strategy { return []core.Strategy{arbiters.SatGraphStrategy()} },
			domains:    func(*graph.Graph) []cert.Domain { return []cert.Domain{{}} },
		},
		"hamiltonian": {
			arb: games.HamiltonianArbiter,
			strategies: func() []core.Strategy {
				return []core.Strategy{games.HamiltonianStrategy(), nil, games.RootChargeStrategy()}
			},
			domains: uniform,
		},
		"not-all-selected": {
			arb: games.NotAllSelectedArbiter,
			strategies: func() []core.Strategy {
				return []core.Strategy{games.ForestStrategy(games.IsUnselected), nil, games.ChargeStrategy(nil)}
			},
			domains: uniform,
		},
		"one-selected": {
			arb: games.OneSelectedArbiter,
			strategies: func() []core.Strategy {
				return []core.Strategy{games.ForestStrategy(games.IsSelected), nil, games.ChargeStrategy(games.IsSelected)}
			},
			domains: uniform,
		},
	}
}

// VerifyNames lists the verifiable properties.
func VerifyNames() []string { return sortedKeys(verifiers()) }

// HasVerify reports whether name is in the verify catalog (see
// HasDecide).
func HasVerify(name string) bool {
	_, ok := verifiers()[name]
	return ok
}

// Verify plays the named certificate game on the prepared instance with
// Eve's strategy from the paper, fanning Adam's universal levels out
// across the engine's worker pool and aborting on context cancellation.
func Verify(prep *simulate.Prepared, name string, o search.Options) (bool, error) {
	return VerifyMemo(prep, name, o, nil)
}

// VerifyMemo is Verify through the transposition table: the whole-game
// verdict is memoized under the engine's salt "verify/<name>", which
// pins the catalog strategies the key cannot see (strategies are opaque
// closures; the catalog name determines them). A nil memo just plays
// the game.
func VerifyMemo(prep *simulate.Prepared, name string, o search.Options, m *core.Memo) (bool, error) {
	v, ok := verifiers()[name]
	if !ok {
		return false, fmt.Errorf("%w: verifiable property %q", ErrUnknownName, name)
	}
	arb := v.arb()
	e := core.Engine{Opts: o, Memo: m, Salt: "verify/" + name}
	return arb.StrategyGameValueEngine(prep, v.strategies(), v.domains(prep.Graph()), e)
}

// reductions is the catalog behind Reduce.
func reductions() map[string]reduce.Reduction {
	return map[string]reduce.Reduction{
		"eulerian":       reduce.AllSelectedToEulerian(),
		"hamiltonian":    reduce.AllSelectedToHamiltonian(),
		"co-hamiltonian": reduce.NotAllSelectedToHamiltonian(),
		"3color": reduce.Compose(
			reduce.SatGraphTo3SatGraph(), reduce.ThreeSatGraphToThreeColorable()),
	}
}

// ReduceNames lists the reductions.
func ReduceNames() []string { return sortedKeys(reductions()) }

// HasReduce reports whether name is in the reduce catalog (see
// HasDecide).
func HasReduce(name string) bool {
	_, ok := reductions()[name]
	return ok
}

// Reduce applies the named local reduction to g and validates the
// resulting cluster map. Reductions are deterministic transformations
// with no exhaustive search, so the engine contributes only its
// cancellation context (checked before the transformation and before
// the validation pass).
func Reduce(g *graph.Graph, name string, o search.Options) (*reduce.Result, error) {
	r, ok := reductions()[name]
	if !ok {
		return nil, fmt.Errorf("%w: reduction %q", ErrUnknownName, name)
	}
	if err := ctxErr(o); err != nil {
		return nil, err
	}
	var id graph.IDAssignment
	if r.RadiusID > 0 {
		id = graph.SmallLocallyUnique(g, r.RadiusID)
	}
	res, err := r.Apply(g, id)
	if err != nil {
		return nil, err
	}
	if err := ctxErr(o); err != nil {
		return nil, err
	}
	if err := res.Validate(g); err != nil {
		return nil, fmt.Errorf("cluster map invalid: %w", err)
	}
	return res, nil
}

// GameResult is one line of a game operation: the instance played and
// the two verdicts of the Figure 1 comparison.
type GameResult struct {
	Graph               string `json:"graph"`
	ThreeColorable      bool   `json:"three_colorable"`
	ThreeRoundColorable bool   `json:"three_round_three_colorable"`
}

// GameNames lists the playable games.
func GameNames() []string { return []string{"figure1"} }

// HasGame reports whether name is in the game catalog (see HasDecide).
func HasGame(name string) bool {
	for _, n := range GameNames() {
		if n == name {
			return true
		}
	}
	return false
}

// Game plays the named game on the engine. "figure1" replays the
// Example 1 minimax on both Figure 1 instances, reporting classical
// 3-colorability against the 3-round game value.
func Game(name string, o search.Options) ([]GameResult, error) {
	if name != "figure1" {
		return nil, fmt.Errorf("%w: game %q", ErrUnknownName, name)
	}
	if err := ctxErr(o); err != nil {
		return nil, err
	}
	var out []GameResult
	for _, tt := range []struct {
		name string
		g    *graph.Graph
	}{
		{"Figure 1a", graph.Figure1NoInstance()},
		{"Figure 1b", graph.Figure1YesInstance()},
	} {
		out = append(out, GameResult{
			Graph:               tt.name,
			ThreeColorable:      props.ThreeColorable(tt.g),
			ThreeRoundColorable: props.ThreeRoundThreeColorableOpt(tt.g, o),
		})
	}
	return out, nil
}
