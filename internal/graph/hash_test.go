package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// TestHashEdgePermutationInvariant is the property the service cache
// depends on: the hash of a graph is a function of the graph, not of the
// edge-list order (or duplication) it was constructed from.
func TestHashEdgePermutationInvariant(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(10)
		g := RandomConnected(n, 0.4, rng)
		want := g.Hash()
		edges := g.Edges()
		labels := g.Labels()
		for p := 0; p < 10; p++ {
			perm := append([]Edge(nil), edges...)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			// Randomly flip endpoint order and duplicate an edge: New
			// normalizes and dedups, so the hash must not move.
			for i := range perm {
				if rng.Intn(2) == 0 {
					perm[i] = Edge{U: perm[i].V, V: perm[i].U}
				}
			}
			if len(perm) > 0 {
				perm = append(perm, perm[rng.Intn(len(perm))])
			}
			h := MustNew(n, perm, labels)
			if got := h.Hash(); got != want {
				t.Fatalf("trial %d perm %d: hash moved under edge permutation:\n%s\nvs\n%s\non %v", trial, p, got, want, g)
			}
			if !g.Equal(h) {
				t.Fatalf("trial %d: permuted construction is not Equal", trial)
			}
		}
	}
}

// TestHashDistinguishesGenerators checks that every generator in
// generators.go produces a distinct hash on comparable sizes — labels,
// edge sets, and node counts all feed the hash.
func TestHashDistinguishesGenerators(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	gs := map[string]*Graph{
		"single":        Single("1"),
		"single-empty":  Single(""),
		"path6":         Path(6),
		"cycle6":        Cycle(6),
		"complete6":     Complete(6),
		"star6":         Star(6),
		"grid2x3":       Grid(2, 3),
		"grid3x2":       Grid(3, 2),
		"tree6":         RandomTree(6, rng),
		"fig1a":         Figure1NoInstance(),
		"fig1b":         Figure1YesInstance(),
		"fig5":          Figure5Graph(),
		"glued5":        GluedDoubleCycle(5), // C10; GluedDoubleCycle(3) IS Cycle(6)
		"path6-labeled": Path(6).MustWithLabels(AllSelectedLabels(6)),
		"path6-bits":    Path(6).MustWithLabels(BitLabels(6, 0b101010)),
	}
	seen := make(map[string]string)
	for name, g := range gs {
		h := g.Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("hash collision between %s and %s: %s", name, prev, h)
		}
		seen[h] = name
		if g.Hash() != h {
			t.Fatalf("%s: hash not deterministic", name)
		}
	}
	// Label-only changes must move the hash (WithLabels shares adjacency).
	a := Path(4).MustWithLabels([]string{"1", "0", "1", "0"})
	b := Path(4).MustWithLabels([]string{"1", "0", "1", "1"})
	if a.Hash() == b.Hash() {
		t.Fatal("hash ignores labels")
	}
	// Length-prefix ambiguity: ["ab",""] vs ["a","b"]-style splits.
	c := Path(2).MustWithLabels([]string{"01", ""})
	d := Path(2).MustWithLabels([]string{"0", "1"})
	if c.Hash() == d.Hash() {
		t.Fatal("hash is ambiguous across label boundaries")
	}
}

// TestHashOfMatchesHash: HashOf on a raw edge list — shuffled, with
// endpoints flipped and edges repeated — equals the Hash of the graph
// New builds from it, with labels as strings, as byte spans, and
// omitted. The router keys requests with HashOf and the node's cache
// with Hash, so this equality is what keeps a graph's requests on the
// node that holds it.
func TestHashOfMatchesHash(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(12)
		g := RandomConnected(n, 0.4, rng)
		labels := make([]string, n)
		spans := make([][]byte, n)
		for u := range labels {
			labels[u] = [...]string{"", "0", "1", "01", "110"}[rng.Intn(5)]
			spans[u] = []byte(labels[u])
		}
		perm := g.Edges()
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i := range perm {
			if rng.Intn(2) == 0 {
				perm[i] = Edge{U: perm[i].V, V: perm[i].U}
			}
		}
		for d := rng.Intn(3); d > 0 && len(perm) > 0; d-- {
			perm = append(perm, perm[rng.Intn(len(perm))])
		}
		want := MustNew(n, perm, labels).Hash()
		if got := HashOf(n, slices.Clone(perm), labels); got != want {
			t.Fatalf("trial %d: HashOf(string labels) = %s, Hash = %s", trial, got, want)
		}
		if got := HashOf(n, slices.Clone(perm), spans); got != want {
			t.Fatalf("trial %d: HashOf(byte-span labels) = %s, Hash = %s", trial, got, want)
		}
		unlabeled := MustNew(n, perm, nil).Hash()
		if got := HashOf[string](n, slices.Clone(perm), nil); got != unlabeled {
			t.Fatalf("trial %d: HashOf(nil labels) = %s, Hash = %s", trial, got, unlabeled)
		}
	}

	// The byte layout is pinned: this digest predates HashOf, so keys
	// computed by an older router or node still match.
	const pinned = "2b600dc607bbbb22b72fe56c601e29ab456f151313906dc46153e3049eb96dc7"
	fixed := MustNew(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}, []string{"1", "0", "11", ""})
	if got := fixed.Hash(); got != pinned {
		t.Fatalf("Hash of the fixed labelled graph = %s, want %s", got, pinned)
	}
	if got := HashOf(4, []Edge{{2, 0}, {1, 0}, {3, 2}, {0, 3}, {2, 1}, {0, 1}}, []string{"1", "0", "11", ""}); got != pinned {
		t.Fatalf("HashOf of the fixed labelled graph = %s, want %s", got, pinned)
	}
}
