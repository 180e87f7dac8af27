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
// with it on positions 0..keep(a)−1. The walk starts as one sequential
// head, where a keep covers every later assignment below its prefix.
// Once the head has made budget visits, the prefixes of length depth
// after its current one are cut off: from there on a keep covers only
// assignments below its own depth-prefix. It decodes every rank
// independently of the walk under test.
func bruteForce(s Space, depth, budget int, keep func(Space, []int) int) map[string]bool {
	total, suffix := int64(1), int64(1) // the sizes of the space and of one depth-prefix
	for p := 0; p < s.Len; p++ {
		total *= int64(s.Size(p))
		if p >= depth {
			suffix *= int64(s.Size(p))
		}
	}
	type visit struct {
		a    []int
		keep int
	}
	var visited []visit
	cut := total // the first rank the head's keeps do not reach
	out := map[string]bool{}
	for r := int64(0); r < total; r++ {
		b := make([]int, s.Len)
		decodePrefix(s, s.Len, r, b)
		covered := false
		for _, v := range visited {
			if agree(v.a, b, min(v.keep, s.Len)) && (r < cut || agree(v.a, b, depth)) {
				covered = true
				break
			}
		}
		if covered {
			continue
		}
		visited = append(visited, visit{b, keep(s, b)})
		out[fmt.Sprint(b)] = true
		if len(visited) == budget {
			cut = (r/suffix + 1) * suffix
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
// the pruned walk visits exactly the assignments no earlier keep covers.
// A pool's head walk lets keeps cross prefixes until it has spent its
// budget; from the end of the prefix it is then in, a keep at or below
// the split depth ends the walk of its own prefix and no other.
func TestPrunedWalkMatchesBruteForce(t *testing.T) {
	t.Parallel()
	spaces := []Space{Uniform(6, 3), {Len: 5, Size: func(p int) int { return 2 + p%3 }}}
	opts := []Options{Sequential(), Parallel(3), {Workers: 3, SplitDepth: 1}, {Workers: 3, SplitDepth: 3}}
	for si, s := range spaces {
		for _, f := range keepFamilies {
			for _, o := range opts {
				depth := 0
				if Splittable(o, s) {
					depth, _ = splitDepth(o, s)
				}
				got := prunedVisits(t, o, s, f.keep)
				if err := sameSet(got, bruteForce(s, depth, headBudget, f.keep)); err != nil {
					t.Errorf("space %d, %s keeps, %+v: %v", si, f.name, o, err)
				}
				if f.name == "zero" && len(got) != 1 {
					t.Errorf("space %d, keep 0, %+v: %d visits, want 1 (the head's first keep ends the walk)", si, o, len(got))
				}
			}
		}
	}
}

// TestHeadWithinBudget: a walk that ends within the head's budget —
// on a witness, a counterexample or keeps that skip the rest — makes
// one predicate, starts no pool, and shows exactly the sequential
// engine's assignments in its order.
func TestHeadWithinBudget(t *testing.T) {
	t.Parallel()
	s := Uniform(6, 3) // 729 assignments, 81 prefixes under Parallel(3)
	cases := []struct {
		name   string
		forAll bool
		pred   func(a []int) (bool, int)
	}{
		{"witness", false, func(a []int) (bool, int) { return rank(s, a) == headBudget-1, s.Len }},
		{"counterexample", true, func(a []int) (bool, int) { return rank(s, a) != 3, s.Len }},
		{"keeps", false, func(a []int) (bool, int) { return false, 1 }},
	}
	for _, c := range cases {
		run := func(o Options) ([]string, int, bool) {
			var order []string
			made := 0
			newPred := func() WorkerPred {
				made++ // unsynchronized: -race flags a predicate made on a pool goroutine
				return func(a []int, _ bool) (bool, int) {
					order = append(order, fmt.Sprint(a))
					return c.pred(a)
				}
			}
			var v bool
			var err error
			if c.forAll {
				v, err = ForAllPerWorker(o, s, newPred)
			} else {
				v, err = ExistsPerWorker(o, s, newPred)
			}
			if err != nil {
				t.Fatalf("%s %+v: %v", c.name, o, err)
			}
			return order, made, v
		}
		want, _, wantV := run(Sequential())
		if len(want) > headBudget {
			t.Fatalf("%s: the sequential walk visits %d assignments, more than the budget %d", c.name, len(want), headBudget)
		}
		for _, o := range []Options{Parallel(3), {Workers: 4, SplitDepth: 5}} {
			got, made, v := run(o)
			if v != wantV || made != 1 || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s %+v: value %v, %d predicates, visits %v; want %v, 1, %v", c.name, o, v, made, got, wantV, want)
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

// FuzzPrunedWalk: the fuzz bytes choose a space (up to six positions of
// one to three choices), a keep seed and the engine's options. The
// pruned walk must visit exactly bruteForce's assignments, and Exists
// and ForAll over a seed-chosen witness set must give the sequential
// engine's values.
func FuzzPrunedWalk(f *testing.F) {
	f.Add([]byte{2, 2, 2, 2, 2, 2}, uint64(0), uint8(2), uint8(0))
	f.Add([]byte{0, 1, 2, 0, 1}, uint64(7), uint8(3), uint8(3))
	f.Add([]byte{2, 2, 2, 2, 2}, uint64(1<<40+5), uint8(1), uint8(2))
	f.Add([]byte{}, uint64(3), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, shape []byte, seed uint64, workers, split uint8) {
		shape = shape[:min(len(shape), 6)]
		s := Space{Len: len(shape), Size: func(p int) int { return 1 + int(shape[p]%3) }}
		o := Options{Workers: 1 + int(workers%4), SplitDepth: int(split) % (s.Len + 1)}
		keep := func(s Space, a []int) int {
			h := mix(s, a) ^ seed
			if seed%2 == 0 {
				return s.Len - int(h%4)
			}
			return int(h % uint64(s.Len+1))
		}
		depth := 0
		if Splittable(o, s) {
			depth, _ = splitDepth(o, s)
		}
		if err := sameSet(prunedVisits(t, o, s, keep), bruteForce(s, depth, headBudget, keep)); err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		period := 1 + (seed>>32)%200
		witness := func(a []int) bool { return (mix(s, a)^seed)%period == 0 }
		none := func(a []int) bool { return !witness(a) }
		for _, q := range []struct {
			name string
			eval func(Options, Space, Pred) (bool, error)
			pred Pred
		}{{"Exists", Exists, witness}, {"ForAll", ForAll, none}} {
			want, _ := q.eval(Sequential(), s, q.pred)
			if got, err := q.eval(o, s, q.pred); got != want || err != nil {
				t.Fatalf("%s %+v: (%v, %v), sequential %v", q.name, o, got, err, want)
			}
		}
	})
}
