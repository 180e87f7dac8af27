package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/simulate"
)

func TestMemoSingleFlight(t *testing.T) {
	t.Parallel()
	m := NewMemo(0)
	var calls atomic.Int64
	gate := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	results := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.Do(context.Background(), "k", func() (bool, error) {
				calls.Add(1)
				<-gate // hold the flight open until all goroutines arrived
				return true, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}()
	}
	// Hold the flight open until every other goroutine is waiting on it:
	// one released as soon as the flight is claimed could still be on its
	// way to Do, and would then score a plain hit instead of a wait.
	for m.Stats().Waits < waiters-1 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("f ran %d times, want 1", got)
	}
	for i, v := range results {
		if !v {
			t.Fatalf("waiter %d got %v, want true", i, v)
		}
	}
	// Each waiter records a wait, then re-enters the loop and scores a hit
	// on the now-completed entry.
	st := m.Stats()
	if st.Misses != 1 || st.Waits != waiters-1 || st.Hits != waiters-1 {
		t.Fatalf("stats %+v: want 1 miss, %d waits, %d hits", st, waiters-1, waiters-1)
	}
}

func TestMemoErrorNotCached(t *testing.T) {
	t.Parallel()
	m := NewMemo(0)
	boom := errors.New("boom")
	if _, err := m.Do(nil, "k", func() (bool, error) { return false, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, err := m.Do(nil, "k", func() (bool, error) { return true, nil })
	if err != nil || !v {
		t.Fatalf("retry after error: (%v, %v), want (true, nil) recomputed", v, err)
	}
	if st := m.Stats(); st.Misses != 2 || st.Size != 1 {
		t.Fatalf("stats %+v: want 2 misses (error never cached) and 1 entry", st)
	}
	// The stored success must now hit.
	if v, err := m.Do(nil, "k", func() (bool, error) { return false, nil }); err != nil || !v {
		t.Fatalf("hit returned (%v, %v), want cached true", v, err)
	}
	if st := m.Stats(); st.Hits != 1 {
		t.Fatalf("stats %+v: want 1 hit", st)
	}
}

func TestMemoEviction(t *testing.T) {
	t.Parallel()
	m := NewMemo(2)
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := m.Do(nil, key, func() (bool, error) { return true, nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Size > 2 {
		t.Fatalf("size %d exceeds capacity 2", st.Size)
	}
	if st.Evictions != 3 {
		t.Fatalf("evictions = %d, want 3", st.Evictions)
	}
}

func TestMemoNilReceiver(t *testing.T) {
	t.Parallel()
	var m *Memo
	calls := 0
	for i := 0; i < 2; i++ {
		v, err := m.Do(context.Background(), "k", func() (bool, error) { calls++; return true, nil })
		if err != nil || !v {
			t.Fatalf("nil memo Do = (%v, %v)", v, err)
		}
	}
	if calls != 2 {
		t.Fatalf("nil memo must always compute: %d calls, want 2", calls)
	}
	if st := m.Stats(); st != (MemoStats{}) {
		t.Fatalf("nil memo stats = %+v, want zero", st)
	}
}

func TestMemoWaiterHonorsContext(t *testing.T) {
	t.Parallel()
	m := NewMemo(0)
	started := make(chan struct{})
	gate := make(chan struct{})
	defer close(gate)
	go func() {
		_, _ = m.Do(context.Background(), "k", func() (bool, error) {
			close(started)
			<-gate
			return true, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Do(ctx, "k", func() (bool, error) { return true, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
}

// engineConfigs is every optimization configuration the equivalence
// property quantifies over; all must agree with Reference().
func engineConfigs(memo *Memo) []struct {
	name string
	eng  Engine
} {
	return []struct {
		name string
		eng  Engine
	}{
		{"optimized sequential", Engine{Opts: search.Sequential()}},
		{"optimized parallel", Engine{Opts: search.Parallel(4)}},
		{"memo sequential", Engine{Opts: search.Sequential(), Memo: memo, Salt: "t"}},
		{"memo parallel", Engine{Opts: search.Parallel(4), Memo: memo, Salt: "t"}},
		{"memo no-pool", Engine{Opts: search.Parallel(4), Memo: memo, Salt: "t", NoPool: true}},
	}
}

// TestMemoEnabledMatchesReference is the ProCoS equivalence property of
// the PR 8 optimization layers: for every core arbiter — Σ and Π levels
// with 1–3 alternations, including the relativized Lemma 11 machine —
// every engine configuration (memo on/off, pool on/off,
// sequential/parallel) computes exactly the value of the unoptimized
// Reference() engine. Each memoized configuration
// runs twice against one shared table, so warm hits are checked to
// return the same verdict as the cold computation.
func TestMemoEnabledMatchesReference(t *testing.T) {
	t.Parallel()
	for _, tt := range coreParityCases() {
		id := graph.GloballyUnique(tt.g)
		prep, err := simulate.Prepare(tt.g, id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tt.arb.GameValueEngine(prep, tt.domains, Reference())
		if err != nil {
			t.Fatalf("%s reference: %v", tt.name, err)
		}
		memo := NewMemo(0)
		for _, cfg := range engineConfigs(memo) {
			for round := 0; round < 2; round++ {
				got, err := tt.arb.GameValueEngine(prep, tt.domains, cfg.eng)
				if err != nil {
					t.Fatalf("%s %s round %d: %v", tt.name, cfg.name, round, err)
				}
				if got != want {
					t.Errorf("%s %s round %d: got %v, reference %v", tt.name, cfg.name, round, got, want)
				}
			}
		}
		if st := memo.Stats(); st.Hits == 0 {
			t.Errorf("%s: repeated memoized evaluations recorded no hits (%+v)", tt.name, st)
		}
	}
}

// TestMemoSymmetricInstanceMatchesReference extends the equivalence
// property to identifiers that are only locally unique: C6 with
// period-3 identifiers, where every id occurs at two nodes.
func TestMemoSymmetricInstanceMatchesReference(t *testing.T) {
	t.Parallel()
	g := graph.Cycle(6).MustWithLabels([]string{"0", "1", "1", "0", "1", "1"})
	id := graph.IDAssignment{"0", "1", "10", "0", "1", "10"}
	prep, err := simulate.Prepare(g, id)
	if err != nil {
		t.Fatal(err)
	}
	one := []cert.Domain{cert.UniformDomain(6, 1)}
	two := []cert.Domain{cert.UniformDomain(6, 1), cert.UniformDomain(6, 1)}
	for _, tt := range []struct {
		name    string
		arb     *Arbiter
		domains []cert.Domain
	}{
		{"cert-equals-label Σ1", certEqualsLabel(Sigma(1)), one},
		{"cert-equals-label Π1", certEqualsLabel(Pi(1)), one},
		{"cert-parity Σ2", certParity(Sigma(2)), two},
		{"cert-parity Π2", certParity(Pi(2)), two},
	} {
		want, err := tt.arb.GameValueEngine(prep, tt.domains, Reference())
		if err != nil {
			t.Fatalf("%s reference: %v", tt.name, err)
		}
		memo := NewMemo(0)
		for _, cfg := range engineConfigs(memo) {
			got, err := tt.arb.GameValueEngine(prep, tt.domains, cfg.eng)
			if err != nil {
				t.Fatalf("%s %s: %v", tt.name, cfg.name, err)
			}
			if got != want {
				t.Errorf("%s %s: got %v, reference %v", tt.name, cfg.name, got, want)
			}
		}
	}
}

// maskGraph builds a small labeled graph from fuzz bytes: n in [2,5],
// the low bits of edges select from the n*(n-1)/2 possible edges.
func maskGraph(n uint8, edges uint16) *graph.Graph {
	nn := 2 + int(n%4)
	var es []graph.Edge
	bit := 0
	for u := 0; u < nn; u++ {
		for v := u + 1; v < nn; v++ {
			if edges&(1<<bit) != 0 {
				es = append(es, graph.Edge{U: u, V: v})
			}
			bit++
		}
	}
	g, err := graph.New(nn, es, nil)
	if err != nil {
		return nil
	}
	return g
}

// TestMemoKeysSeparateGameKinds shares one table between an exhaustive
// game and a strategy-guided game on the same arbiter, domains and Salt:
// Eve wins the exhaustive Σ1 game by matching every label, and loses
// with a strategy that plays the empty certificate everywhere. In
// either order, each game must return its unmemoized value, so the
// game-kind byte of the key keeps one from answering the other.
func TestMemoKeysSeparateGameKinds(t *testing.T) {
	t.Parallel()
	g := graph.Path(4).MustWithLabels([]string{"0", "1", "1", "0"})
	prep, err := simulate.Prepare(g, graph.GloballyUnique(g))
	if err != nil {
		t.Fatal(err)
	}
	arb := certEqualsLabel(Sigma(1))
	domains := []cert.Domain{cert.UniformDomain(4, 1)}
	empty := []Strategy{func(g *graph.Graph, _ graph.IDAssignment, _ []cert.Assignment) (cert.Assignment, error) {
		return make(cert.Assignment, g.N()), nil
	}}
	games := []struct {
		name string
		want bool
		play func(Engine) (bool, error)
	}{
		{"exhaustive", true, func(e Engine) (bool, error) { return arb.GameValueEngine(prep, domains, e) }},
		{"strategy", false, func(e Engine) (bool, error) { return arb.StrategyGameValueEngine(prep, empty, domains, e) }},
	}
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		memo := NewMemo(0)
		for _, j := range order {
			for _, e := range []Engine{{Opts: search.Sequential()}, {Opts: search.Sequential(), Memo: memo, Salt: "t"}} {
				if got, err := games[j].play(e); err != nil || got != games[j].want {
					t.Fatalf("%s game, memo %v: (%v, %v), want %v", games[j].name, e.Memo != nil, got, err, games[j].want)
				}
			}
		}
		if st := memo.Stats(); st.Size != 2 || st.Hits != 0 {
			t.Fatalf("stats %+v: want 2 entries and no hits", st)
		}
	}
}

// FuzzMemoKey fuzzes the memo key derivation across pairs of (graph,
// game kind) inputs: equal seeds must imply identical graphs and the
// same kind. A violation would let one graph's cached verdict answer
// another graph's game — the exact corruption the SHA-256 seed rules
// out.
func FuzzMemoKey(f *testing.F) {
	f.Add(uint8(1), uint16(0b011), false, uint8(2), uint16(0b111), false)
	f.Add(uint8(2), uint16(0b101), false, uint8(2), uint16(0b101), true)
	f.Fuzz(func(t *testing.T, n1 uint8, e1 uint16, s1 bool, n2 uint8, e2 uint16, s2 bool) {
		g1, g2 := maskGraph(n1, e1), maskGraph(n2, e2)
		if g1 == nil || g2 == nil {
			t.Skip()
		}
		seed := func(g *graph.Graph, strategic bool) string {
			prep, err := simulate.Prepare(g, graph.SmallLocallyUnique(g, 1))
			if err != nil {
				t.Fatal(err)
			}
			arb := &Arbiter{Machine: &simulate.Machine{Name: "fuzz:memo-key"},
				Level: Sigma(2), RadiusID: 1}
			enums := []*cert.Enum{
				cert.UniformDomain(g.N(), 1).Enum(),
				cert.UniformDomain(g.N(), 1).Enum(),
			}
			s := evalSeed(arb, prep, enums, "fuzz", strategic)
			if s == "" {
				t.Fatal("named machine produced no seed")
			}
			return s
		}
		k1, k2 := seed(g1, s1), seed(g2, s2)
		if k1 != k2 {
			return
		}
		if g1.N() != g2.N() || g1.Hash() != g2.Hash() {
			t.Fatalf("cross-graph key collision: %q for n=%d/%d", k1, g1.N(), g2.N())
		}
		if s1 != s2 {
			t.Fatalf("cross-kind key collision: %q", k1)
		}
	})
}
