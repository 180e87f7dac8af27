package core_test

import (
	"testing"

	"repro/internal/arbiters"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/simulate"
)

// bitMachine is a one-round machine whose verdict at a node is
// accept(label, certs).
func bitMachine(name string, accept func(label string, certs []string) bool) *simulate.Machine {
	return &simulate.Machine{
		Name:  name,
		Init:  func(in simulate.Input) any { return accept(in.Label, in.Certs) },
		Round: func(any, int, []string) ([]string, bool) { return nil, true },
		Output: func(s any) string {
			if s.(bool) {
				return "1"
			}
			return "0"
		},
	}
}

// bitOf reads a missing certificate bit as "0".
func bitOf(s string) byte {
	if s == "" {
		return '0'
	}
	return s[0]
}

// workInstance is one game of the games-cold rotation.
type workInstance struct {
	name    string
	arb     *core.Arbiter
	prep    *simulate.Prepared
	domains []cert.Domain
}

// workCounts is one engine configuration's (leaves, node runs) on each
// workInstances game, in that order.
type workCounts [5][2]int64

// TestGamesColdWork pins the work the engine layers do on the five
// games of the benchmark's games-cold rotation, as Counters reports it:
// leaves visited and nodes started from Init. The counts are
// deterministic (TestNodeRunsDeterministic), so a layer's saving is the
// difference between its row and the row with it off; DESIGN.md
// "Benchmark methodology" is this table. Every configuration must also
// give the reference engine's value.
func TestGamesColdWork(t *testing.T) {
	t.Parallel()
	seq := search.Sequential()
	rows := []struct {
		name string
		eng  core.Engine
		memo bool // a cold memo per evaluation, as in the benchmark
		want workCounts
	}{
		{"default sequential", core.Engine{Opts: seq}, true,
			workCounts{{1539, 2093}, {18, 23}, {27, 35}, {13, 35}, {391, 1943}}},
		{"default Parallel(2)", core.Engine{Opts: search.Parallel(2)}, true,
			workCounts{{1539, 2182}, {18, 23}, {27, 35}, {13, 35}, {391, 1943}}},
		{"no memo", core.Engine{Opts: seq}, false,
			workCounts{{1539, 2093}, {18, 23}, {27, 35}, {13, 35}, {391, 1943}}},
		{"no pooled leaves (no incremental runs, no backjumping)", core.Engine{Opts: seq, NoPool: true}, true,
			workCounts{{25839, 129195}, {729, 4374}, {19683, 177147}, {2187, 15309}, {16807, 84035}}},
	}
	for i, in := range workInstances(t) {
		want, err := in.arb.GameValueEngine(in.prep, in.domains, core.Reference())
		if err != nil {
			t.Fatalf("%s reference: %v", in.name, err)
		}
		for _, row := range rows {
			c := new(core.Counters)
			eng := row.eng
			eng.Counters = c
			if row.memo {
				eng.Memo = core.NewMemo(0)
			}
			got, err := in.arb.GameValueEngine(in.prep, in.domains, eng)
			if err != nil || got != want {
				t.Fatalf("%s, %s: (%v, %v), reference %v", in.name, row.name, got, err, want)
			}
			if w := row.want[i]; c.Leaves.Load() != w[0] || c.NodeRuns.Load() != w[1] {
				t.Errorf("%s, %s: %d leaves and %d node runs, want %d and %d",
					in.name, row.name, c.Leaves.Load(), c.NodeRuns.Load(), w[0], w[1])
			}
		}
	}
}

// BenchmarkGamesColdGames times each game of the benchmark's games-cold
// rotation cold, as the benchmark plays it: a fresh memo per
// evaluation on a shared Prepared instance, under the sequential
// engine and under the default one (a pool of all CPUs), so each
// game's pair shows what fanning out costs or saves on it.
func BenchmarkGamesColdGames(b *testing.B) {
	engines := []struct {
		name string
		opts search.Options
	}{{"sequential", search.Sequential()}, {"default", search.Default()}}
	for _, in := range workInstances(b) {
		for _, e := range engines {
			b.Run(in.name+"/"+e.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					eng := core.Engine{Opts: e.opts, Memo: core.NewMemo(0)}
					if _, err := in.arb.GameValueEngine(in.prep, in.domains, eng); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// workInstances are the games of the benchmark's games-cold rotation,
// rebuilt here: each outer level runs to exhaustion, so every count is
// a fixed number.
func workInstances(t testing.TB) []workInstance {
	parity := bitMachine("bench:triple-parity", func(label string, c []string) bool {
		return len(c) == 3 && bitOf(c[0])^bitOf(c[1])^bitOf(c[2])^label[0] == 0
	})
	acceptAll := bitMachine("bench:accept-all", func(string, []string) bool { return true })
	match := bitMachine("bench:match-selected", func(label string, c []string) bool {
		return len(c) >= 1 && c[0] == label && label == "1"
	})
	oneBit := bitMachine("bench:one-bit", func(_ string, c []string) bool { return len(c) >= 1 && len(c[0]) == 1 })
	arb := func(m *simulate.Machine, l core.Level) *core.Arbiter {
		return &core.Arbiter{Machine: m, Level: l, RadiusID: 1}
	}
	u := cert.UniformDomain
	// prepare uses period-3 identifiers when asked, and otherwise the
	// small locally unique assignment a service node uses.
	prepare := func(g *graph.Graph, period3 bool) *simulate.Prepared {
		ids := graph.SmallLocallyUnique(g, 1)
		if period3 {
			for i := range ids {
				ids[i] = []string{"0", "1", "10"}[i%3]
			}
		}
		prep, err := simulate.Prepare(g, ids)
		if err != nil {
			t.Fatal(err)
		}
		return prep
	}
	return []workInstance{
		{"triple-parity-sigma3-P5", arb(parity, core.Sigma(3)), prepare(graph.Path(5).MustWithLabels([]string{"0", "1", "1", "0", "1"}), false),
			[]cert.Domain{u(5, 0), u(5, 1), u(5, 1)}},
		{"pi1-C6-period3", arb(acceptAll, core.Pi(1)), prepare(graph.Cycle(6), true), []cert.Domain{u(6, 1)}},
		{"pi1-C9-period3", arb(acceptAll, core.Pi(1)), prepare(graph.Cycle(9), true), []cert.Domain{u(9, 1)}},
		{"lemma11-relativized-P7", arb(core.Relativize(match, core.Sigma(1), []core.Restrictor{{Machine: oneBit, Move: 1}}, 1), core.Sigma(1)),
			prepare(graph.Path(7).MustWithLabels([]string{"1", "0", "1", "1", "0", "1", "0"}), false), []cert.Domain{u(7, 1)}},
		{"4-colorable-K5", arb(arbiters.KColorable(4), core.Sigma(1)), prepare(graph.Complete(5), false), []cert.Domain{u(5, 2)}},
	}
}

// TestK5AllocsPerNodeRun pins what one node run allocates on the
// games-cold rotation's K5 game under the sequential engine: at most
// one object, Init's state, since KColorable sends through the buffer
// Round is lent (simulate.Broadcast). evalAllocs covers the
// evaluation's own buffers, which do not grow with the leaves.
//
// Not parallel: AllocsPerRun counts the whole process's allocations.
func TestK5AllocsPerNodeRun(t *testing.T) {
	const evalAllocs = 64
	var k5 workInstance
	for _, in := range workInstances(t) {
		if in.name == "4-colorable-K5" {
			k5 = in
		}
	}
	play := func(e core.Engine) {
		if ok, err := k5.arb.GameValueEngine(k5.prep, k5.domains, e); err != nil || ok {
			t.Fatalf("%s: (%v, %v), want (false, nil)", k5.name, ok, err)
		}
	}
	c := new(core.Counters)
	play(core.Engine{Opts: search.Sequential(), Counters: c})
	runs := c.NodeRuns.Load()
	allocs := testing.AllocsPerRun(5, func() { play(core.Engine{Opts: search.Sequential()}) })
	if allocs > float64(runs+evalAllocs) {
		t.Errorf("%s: one evaluation allocates %v times for %d node runs, want at most %d", k5.name, allocs, runs, runs+evalAllocs)
	}
}
