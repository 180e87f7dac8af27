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
		{"memo no-symmetry", Engine{Opts: search.Parallel(4), Memo: memo, Salt: "t", NoSymmetry: true}},
		{"memo no-pool", Engine{Opts: search.Parallel(4), Memo: memo, Salt: "t", NoPool: true}},
	}
}

// TestMemoEnabledMatchesReference is the ProCoS equivalence property of
// the PR 8 optimization layers: for every core arbiter — Σ and Π levels
// with 1–3 alternations, including the relativized Lemma 11 machine —
// every engine configuration (memo on/off, bitset on/off, symmetry
// on/off, pool on/off, sequential/parallel) computes exactly the value
// of the unoptimized Reference() engine. Each memoized configuration
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
// property to instances with non-trivial value-preserving symmetry —
// C6 with period-3 identifiers admits the rotation by 3 — where the
// pruning layer actually skips work (TestSymmetryPrunes asserts that).
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

// FuzzMemoKey fuzzes the memo key derivation across pairs of (graph,
// prefix choice) inputs: equal keys must imply identical graphs and
// identical decoded prefixes. A violation would let one graph's cached
// verdict answer another graph's game — the exact corruption the
// SHA-256 seed plus the separator encoding of subkey rule out.
func FuzzMemoKey(f *testing.F) {
	f.Add(uint8(1), uint16(0b011), uint8(2), uint16(0b111), uint16(0), uint16(1))
	f.Add(uint8(2), uint16(0b101), uint8(2), uint16(0b101), uint16(3), uint16(3))
	f.Fuzz(func(t *testing.T, n1 uint8, e1 uint16, n2 uint8, e2 uint16, c1, c2 uint16) {
		g1, g2 := maskGraph(n1, e1), maskGraph(n2, e2)
		if g1 == nil || g2 == nil {
			t.Skip()
		}
		key := func(g *graph.Graph, choice uint16) (string, string) {
			id := graph.SmallLocallyUnique(g, 1)
			prep, err := simulate.Prepare(g, id)
			if err != nil {
				t.Fatal(err)
			}
			arb := &Arbiter{Machine: &simulate.Machine{Name: "fuzz:memo-key"},
				Level: Sigma(2), RadiusID: 1}
			enums := []*cert.Enum{
				cert.UniformDomain(g.N(), 1).Enum(),
				cert.UniformDomain(g.N(), 1).Enum(),
			}
			seed := evalSeed(arb, prep, enums, "fuzz")
			if seed == "" {
				t.Fatal("named machine produced no seed")
			}
			// Decode the fuzzed choice into a level-1 move.
			e := enums[0]
			choices := make([]int, e.Len())
			rem := int(choice)
			for u := e.Len() - 1; u >= 0; u-- {
				choices[u] = rem % e.NumOptions(u)
				rem /= e.NumOptions(u)
			}
			move := make(cert.Assignment, e.Len())
			e.Decode(choices, move)
			return subkey(seed, 2, []cert.Assignment{move}), fmt.Sprint(move)
		}
		k1, m1 := key(g1, c1)
		k2, m2 := key(g2, c2)
		if k1 != k2 {
			return
		}
		// Equal keys: the graphs must be byte-identical and the moves equal.
		if g1.N() != g2.N() || g1.Hash() != g2.Hash() {
			t.Fatalf("cross-graph key collision: %q for n=%d/%d", k1, g1.N(), g2.N())
		}
		if m1 != m2 {
			t.Fatalf("same-graph prefix collision: %q for moves %s vs %s", k1, m1, m2)
		}
	})
}
