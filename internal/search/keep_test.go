package search

import (
	"fmt"
	"sync"
	"testing"
)

// keepFamilies are deterministic keeps for the backjumping tests, each a
// function of the assignment: mostly long (a skip of the last few
// positions), anything from 0 to Len, and always 0.
var keepFamilies = []struct {
	name string
	keep func(s Space, a []int) int
}{
	{"long", func(s Space, a []int) int { return s.Len - int(mix(s, a)%4) }},
	{"any", func(s Space, a []int) int { return int(mix(s, a) % uint64(s.Len+1)) }},
	{"zero", func(Space, []int) int { return 0 }},
}

// mix hashes an assignment.
func mix(s Space, a []int) uint64 {
	h := uint64(rank(s, a))*0x9e3779b97f4a7c15 + 7
	return h ^ h>>29
}

// bruteForce returns the assignments a walk split at depth must visit
// when every visited assignment a vouches for the later ones that agree
// with it on positions 0..keep(a)−1: an assignment is visited iff no
// earlier visited assignment below the same depth-prefix covers it. It
// decodes every rank independently of the walk under test.
func bruteForce(s Space, depth int, keep func(Space, []int) int) map[string]bool {
	total := int64(1)
	for p := 0; p < s.Len; p++ {
		total *= int64(s.Size(p))
	}
	type visit struct {
		a    []int
		keep int
	}
	var visited []visit
	out := map[string]bool{}
	for r := int64(0); r < total; r++ {
		b := make([]int, s.Len)
		decodePrefix(s, s.Len, r, b)
		covered := false
		for _, v := range visited {
			if agree(v.a, b, depth) && agree(v.a, b, min(v.keep, s.Len)) {
				covered = true
				break
			}
		}
		if !covered {
			visited = append(visited, visit{b, keep(s, b)})
			out[fmt.Sprint(b)] = true
		}
	}
	return out
}

// agree reports whether a and b agree on positions 0..k−1.
func agree(a, b []int, k int) bool {
	for p := 0; p < k; p++ {
		if a[p] != b[p] {
			return false
		}
	}
	return true
}

// prunedVisits runs a witness-free ExistsPerWorker under o whose
// predicate returns keep, and returns the assignments it was shown;
// every assignment may be shown at most once.
func prunedVisits(t *testing.T, o Options, s Space, keep func(Space, []int) int) map[string]bool {
	t.Helper()
	var mu sync.Mutex
	seen := map[string]bool{}
	ok, err := ExistsPerWorker(o, s, func() WorkerPred {
		return func(a []int, _ bool) (bool, int) {
			mu.Lock()
			defer mu.Unlock()
			k := fmt.Sprint(a)
			if seen[k] {
				t.Errorf("%+v: %s shown twice", o, k)
			}
			seen[k] = true
			return false, keep(s, a)
		}
	})
	if ok || err != nil {
		t.Fatalf("%+v: (%v, %v), want (false, nil)", o, ok, err)
	}
	return seen
}

// sameSet reports the first difference between two visit sets.
func sameSet(got, want map[string]bool) error {
	for k := range want {
		if !got[k] {
			return fmt.Errorf("%s not visited (%d visited, want %d)", k, len(got), len(want))
		}
	}
	for k := range got {
		if !want[k] {
			return fmt.Errorf("%s visited though covered (%d visited, want %d)", k, len(got), len(want))
		}
	}
	return nil
}

// TestPrunedWalkMatchesBruteForce is the keep contract against brute
// force: under the sequential engine, a pool and split-depth overrides,
// the pruned walk visits exactly the assignments no earlier keep covers,
// where a keep covers only assignments below its own prefix: a keep at
// or below the split depth ends the walk of that prefix and no other.
func TestPrunedWalkMatchesBruteForce(t *testing.T) {
	t.Parallel()
	spaces := []Space{Uniform(6, 3), {Len: 5, Size: func(p int) int { return 2 + p%3 }}}
	opts := []Options{Sequential(), Parallel(3), {Workers: 3, SplitDepth: 1}, {Workers: 3, SplitDepth: 3}}
	for si, s := range spaces {
		for _, f := range keepFamilies {
			for _, o := range opts {
				depth, prefixes := 0, 1
				if Splittable(o, s) {
					depth, prefixes = splitDepth(o, s)
				}
				got := prunedVisits(t, o, s, f.keep)
				if err := sameSet(got, bruteForce(s, depth, f.keep)); err != nil {
					t.Errorf("space %d, %s keeps, %+v: %v", si, f.name, o, err)
				}
				if f.name == "zero" && len(got) != prefixes {
					t.Errorf("space %d, keep 0, %+v: %d visits, want one per prefix (%d)", si, o, len(got), prefixes)
				}
			}
		}
	}
}

// TestPrunedWalkSameUnderAnyPool: keeps beyond every split depth never
// reach a prefix boundary, so the sequential engine, a pool and
// split-depth overrides visit the same assignments, and the walk skips
// some.
func TestPrunedWalkSameUnderAnyPool(t *testing.T) {
	t.Parallel()
	s := Uniform(6, 3)
	keep := func(s Space, a []int) int { return s.Len - int(mix(s, a)%2) }
	want := prunedVisits(t, Sequential(), s, keep)
	if len(want) >= 729 {
		t.Fatalf("the sequential walk visited %d of 729 assignments, want fewer", len(want))
	}
	for _, o := range []Options{Parallel(3), {Workers: 3, SplitDepth: 2}, {Workers: 2, SplitDepth: 4}} {
		if depth, _ := splitDepth(o, s); depth >= 5 {
			t.Fatalf("%+v splits at depth %d, at or past a keep", o, depth)
		}
		if err := sameSet(prunedVisits(t, o, s, keep), want); err != nil {
			t.Errorf("%+v: %v", o, err)
		}
	}
}

// TestForEachPruned pins the sequential walk's skip: after an
// assignment with keep k it goes on at the next choice of position k−1.
func TestForEachPruned(t *testing.T) {
	var got []string
	complete := ForEachPruned(Binary(3), func(a []int) (bool, int) {
		got = append(got, fmt.Sprint(a))
		switch fmt.Sprint(a) {
		case "[0 0 0]":
			return true, 1 // skips [0 0 1] … [0 1 1]
		case "[1 0 0]":
			return true, 2 // skips [1 0 1]
		}
		return true, 3
	})
	want := []string{"[0 0 0]", "[1 0 0]", "[1 1 0]", "[1 1 1]"}
	if !complete || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("visited %v (complete %v), want %v (complete true)", got, complete, want)
	}
}
