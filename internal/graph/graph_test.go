package graph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name    string
		n       int
		edges   []Edge
		labels  []string
		wantErr error
	}{
		{name: "empty", n: 0, wantErr: ErrEmptyGraph},
		{name: "disconnected", n: 2, wantErr: ErrNotConnected},
		{name: "huge and edgeless", n: 1 << 30, wantErr: ErrNotConnected}, // refused before allocating
		{name: "bad label", n: 1, labels: []string{"2"}, wantErr: ErrInvalidLabel},
		{name: "single ok", n: 1, labels: []string{"101"}},
		{name: "triangle ok", n: 3, edges: []Edge{{0, 1}, {1, 2}, {2, 0}}},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			_, err := New(tt.n, tt.edges, tt.labels)
			if tt.wantErr == nil {
				if err != nil {
					t.Fatalf("New: unexpected error %v", err)
				}
				return
			}
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("New: got error %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestSelfLoopRejected(t *testing.T) {
	t.Parallel()
	if _, err := New(2, []Edge{{0, 0}, {0, 1}}, nil); err == nil {
		t.Fatal("New accepted a self-loop")
	}
}

func TestDuplicateEdgesIgnored(t *testing.T) {
	t.Parallel()
	g := MustNew(2, []Edge{{0, 1}, {1, 0}, {0, 1}}, nil)
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestBasicAccessors(t *testing.T) {
	t.Parallel()
	g := MustNew(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, []string{"0", "1", "10", "11"})
	if g.N() != 4 || g.NumEdges() != 4 {
		t.Fatalf("N=%d m=%d", g.N(), g.NumEdges())
	}
	if g.Degree(0) != 2 || !g.HasEdge(0, 1) || g.HasEdge(0, 2) {
		t.Fatal("adjacency wrong")
	}
	if g.Label(2) != "10" {
		t.Fatalf("Label(2) = %q", g.Label(2))
	}
	if d := g.Distance(0, 2); d != 2 {
		t.Fatalf("Distance(0,2) = %d, want 2", d)
	}
	if d := g.Diameter(); d != 2 {
		t.Fatalf("Diameter = %d, want 2", d)
	}
}

func TestBallAndNeighborhood(t *testing.T) {
	t.Parallel()
	g := Path(5)
	ball := g.Ball(2, 1)
	if len(ball) != 3 || ball[0] != 1 || ball[1] != 2 || ball[2] != 3 {
		t.Fatalf("Ball(2,1) = %v", ball)
	}
	sub, m := g.Neighborhood(0, 2)
	if sub.N() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("Neighborhood(0,2): n=%d m=%d", sub.N(), sub.NumEdges())
	}
	if m[0] != 0 || m[2] != 2 {
		t.Fatalf("mapping = %v", m)
	}
}

func TestNeighborhoodPreservesLabels(t *testing.T) {
	t.Parallel()
	g := Path(4).MustWithLabels([]string{"00", "01", "10", "11"})
	sub, m := g.Neighborhood(1, 1)
	for i, orig := range m {
		if sub.Label(i) != g.Label(orig) {
			t.Fatalf("label mismatch at %d", i)
		}
	}
}

func TestGenerators(t *testing.T) {
	t.Parallel()
	if g := Cycle(5); g.N() != 5 || g.NumEdges() != 5 || g.Degree(0) != 2 {
		t.Fatal("Cycle(5) malformed")
	}
	if g := Complete(4); g.NumEdges() != 6 {
		t.Fatal("K4 malformed")
	}
	if g := Star(5); g.Degree(0) != 4 || g.Degree(1) != 1 {
		t.Fatal("Star(5) malformed")
	}
	if g := Grid(3, 4); g.N() != 12 || g.NumEdges() != 3*3+4*2 {
		t.Fatalf("Grid(3,4): m=%d", Grid(3, 4).NumEdges())
	}
	if g := Single("101"); g.N() != 1 || g.Label(0) != "101" {
		t.Fatal("Single malformed")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		n := 2 + rng.Intn(10)
		if g := RandomTree(n, rng); g.NumEdges() != n-1 {
			t.Fatal("RandomTree not a tree")
		}
		g := RandomConnected(n, 0.3, rng)
		if g.N() != n {
			t.Fatal("RandomConnected wrong size")
		}
	}
}

func TestFigure1Instances(t *testing.T) {
	t.Parallel()
	no := Figure1NoInstance()
	yes := Figure1YesInstance()
	if no.NumEdges() != yes.NumEdges()+1 {
		t.Fatalf("figure 1: edge counts %d vs %d", no.NumEdges(), yes.NumEdges())
	}
	if !no.HasEdge(3, 5) || yes.HasEdge(3, 5) {
		t.Fatal("figure 1: the w1-w3 edge is wrong")
	}
	// Degrees per the paper: u has degree 1, v1 and v2 have degree 2.
	for _, g := range []*Graph{no, yes} {
		if g.Degree(0) != 1 || g.Degree(1) != 2 || g.Degree(2) != 2 {
			t.Fatal("figure 1: degree pattern wrong")
		}
	}
}

func TestGluedDoubleCycle(t *testing.T) {
	t.Parallel()
	g := GluedDoubleCycle(5)
	if g.N() != 10 || g.NumEdges() != 10 {
		t.Fatal("GluedDoubleCycle malformed")
	}
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) != 2 {
			t.Fatal("not 2-regular")
		}
	}
}

func TestCompareID(t *testing.T) {
	t.Parallel()
	tests := []struct {
		a, b string
		want int
	}{
		{"", "0", -1},
		{"0", "00", -1},
		{"00", "01", -1},
		{"1", "01", 1},
		{"10", "10", 0},
	}
	for _, tt := range tests {
		if got := CompareID(tt.a, tt.b); got != tt.want {
			t.Errorf("CompareID(%q,%q) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestCompareIDMatchesStringOrder(t *testing.T) {
	t.Parallel()
	f := func(a, b uint8) bool {
		// Random short bit strings.
		s := fixedWidthBits(int(a%16), 4)[:1+a%4]
		u := fixedWidthBits(int(b%16), 4)[:1+b%4]
		got := CompareID(s, u)
		want := 0
		if s < u {
			want = -1
		} else if s > u {
			want = 1
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSmallLocallyUnique(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	graphs := []*Graph{
		Single(""), Path(7), Cycle(9), Complete(5), Grid(3, 3),
		RandomConnected(12, 0.2, rng),
	}
	for _, g := range graphs {
		for rid := 1; rid <= 3; rid++ {
			id := SmallLocallyUnique(g, rid)
			if !id.IsLocallyUnique(g, rid) {
				t.Fatalf("%v: not %d-locally unique: %v", g, rid, id)
			}
			if !id.IsSmall(g, rid) {
				t.Fatalf("%v: not small for rid=%d: %v", g, rid, id)
			}
		}
	}
}

func TestGloballyUnique(t *testing.T) {
	t.Parallel()
	g := Cycle(6)
	id := GloballyUnique(g)
	seen := make(map[string]bool)
	for _, s := range id {
		if seen[s] {
			t.Fatal("duplicate identifier")
		}
		seen[s] = true
	}
	if !id.IsLocallyUnique(g, 10) {
		t.Fatal("globally unique assignment should be locally unique at any radius")
	}
}

func TestCyclicIDsLocallyUniqueOnCycles(t *testing.T) {
	t.Parallel()
	for _, n := range []int{9, 12, 15} {
		g := Cycle(n)
		rid := 1
		id := CyclicIDs(n, 3) // period 3 = 2*rid+1
		if n%3 == 0 && !id.IsLocallyUnique(g, rid) {
			t.Fatalf("CyclicIDs(%d,3) not 1-locally unique", n)
		}
	}
}

func TestSortByID(t *testing.T) {
	t.Parallel()
	id := IDAssignment{"11", "0", "10", "01"}
	got := id.SortByID([]int{0, 1, 2, 3})
	want := []int{1, 3, 2, 0} // "0" < "01" < "10" < "11"
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortByID = %v, want %v", got, want)
		}
	}
}

func TestIsomorphic(t *testing.T) {
	t.Parallel()
	c5a := Cycle(5)
	// A relabeled C5.
	c5b := MustNew(5, []Edge{{0, 2}, {2, 4}, {4, 1}, {1, 3}, {3, 0}}, nil)
	if !Isomorphic(c5a, c5b) {
		t.Fatal("C5s should be isomorphic")
	}
	if Isomorphic(Cycle(5), Path(5)) {
		t.Fatal("C5 and P5 are not isomorphic")
	}
	// Labels matter.
	g1 := Path(3).MustWithLabels([]string{"1", "0", "1"})
	g2 := Path(3).MustWithLabels([]string{"0", "1", "1"})
	if Isomorphic(g1, g2) {
		t.Fatal("label multiset differs in position: 1-0-1 vs 0-1-1 are not isomorphic")
	}
	g3 := Path(3).MustWithLabels([]string{"1", "0", "1"})
	if !Isomorphic(g1, g3) {
		t.Fatal("identical labeled paths should be isomorphic")
	}
}

func TestIsomorphicInvariantUnderPermutation(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(5)
		g := RandomConnected(n, 0.4, rng)
		perm := rng.Perm(n)
		var edges []Edge
		for _, e := range g.Edges() {
			edges = append(edges, Edge{U: perm[e.U], V: perm[e.V]})
		}
		labels := make([]string, n)
		for u := 0; u < n; u++ {
			labels[perm[u]] = g.Label(u)
		}
		h := MustNew(n, edges, labels)
		if !Isomorphic(g, h) {
			t.Fatalf("permuted copy not isomorphic: %v vs %v", g, h)
		}
	}
}

func TestWithLabelsDoesNotMutate(t *testing.T) {
	t.Parallel()
	g := Path(3)
	h := g.MustWithLabels([]string{"1", "1", "1"})
	if g.Label(0) != "" || h.Label(0) != "1" {
		t.Fatal("WithLabels mutated the receiver")
	}
}

func TestBitLabels(t *testing.T) {
	t.Parallel()
	ls := BitLabels(4, 0b1010)
	want := []string{"0", "1", "0", "1"}
	for i := range want {
		if ls[i] != want[i] {
			t.Fatalf("BitLabels = %v", ls)
		}
	}
}
