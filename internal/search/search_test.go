package search

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachLexOrder pins the enumeration order the sequential engine
// promises: lexicographic with position 0 most significant.
func TestForEachLexOrder(t *testing.T) {
	var got [][]int
	ForEach(Binary(3), func(a []int) bool {
		got = append(got, append([]int(nil), a...))
		return true
	})
	want := [][]int{
		{0, 0, 0}, {0, 0, 1}, {0, 1, 0}, {0, 1, 1},
		{1, 0, 0}, {1, 0, 1}, {1, 1, 0}, {1, 1, 1},
	}
	if len(got) != len(want) {
		t.Fatalf("enumerated %d assignments, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("assignment %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
}

func TestForEachEarlyStop(t *testing.T) {
	count := 0
	full := ForEach(Uniform(4, 3), func([]int) bool {
		count++
		return count < 5
	})
	if full || count != 5 {
		t.Fatalf("full=%v count=%d, want early stop after 5", full, count)
	}
}

// rank maps an assignment of s to its lexicographic index.
func rank(s Space, a []int) int64 {
	var r int64
	for pos := 0; pos < s.Len; pos++ {
		r = r*int64(s.Size(pos)) + int64(a[pos])
	}
	return r
}

// TestParallelMatchesSequential plants witnesses at the start, middle,
// end, and nowhere, over both uniform and ragged spaces, and asserts the
// two engines agree.
func TestParallelMatchesSequential(t *testing.T) {
	ragged := Space{Len: 7, Size: func(pos int) int { return 1 + pos%3 }}
	spaces := []Space{Binary(10), Uniform(6, 3), ragged, Binary(0), Uniform(1, 5)}
	for si, s := range spaces {
		total := int64(1)
		for p := 0; p < s.Len; p++ {
			total *= int64(s.Size(p))
		}
		for _, target := range []int64{-1, 0, total / 2, total - 1} {
			pred := func(a []int) bool { return rank(s, a) == target }
			seq, err := Exists(Sequential(), s, pred)
			if err != nil {
				t.Fatal(err)
			}
			par, err := Exists(Parallel(0), s, pred)
			if err != nil {
				t.Fatal(err)
			}
			if seq != par {
				t.Fatalf("space %d target %d: sequential=%v parallel=%v", si, target, seq, par)
			}
			if want := target >= 0 && target < total; seq != want {
				t.Fatalf("space %d target %d: got %v, want %v", si, target, seq, want)
			}
		}
	}
}

func TestForAll(t *testing.T) {
	s := Uniform(5, 3)
	all, err := ForAll(Parallel(4), s, func(a []int) bool { return a[0] < 3 })
	if err != nil || !all {
		t.Fatalf("tautology: got %v, %v", all, err)
	}
	all, err = ForAll(Parallel(4), s, func(a []int) bool { return rank(s, a) != 100 })
	if err != nil || all {
		t.Fatalf("single counterexample: got %v, %v", all, err)
	}
	seq, _ := ForAll(Sequential(), s, func(a []int) bool { return rank(s, a) != 100 })
	if seq != all {
		t.Fatal("engines disagree on ForAll")
	}
}

// TestPerWorkerPredicates: ExistsPerWorker and ForAllPerWorker make
// exactly one predicate per worker — one under the sequential engine,
// the pool size when the space splits into more prefixes than workers —
// each used by a single goroutine, and agree with Exists and ForAll.
func TestPerWorkerPredicates(t *testing.T) {
	s := Uniform(6, 3) // 729 assignments
	target := func(a []int) bool { return a[0] == 2 && a[5] == 1 }
	for _, o := range []Options{Sequential(), Parallel(3)} {
		wantWorkers := int64(o.pool())
		for _, forAll := range []bool{false, true} {
			var made atomic.Int64
			newPred := func() WorkerPred {
				made.Add(1)
				calls := 0
				return func(a []int, _ bool) bool {
					calls++ // unsynchronized: -race flags a predicate two workers share
					if forAll {
						return !target(a)
					}
					return target(a)
				}
			}
			var got, want bool
			var err error
			if forAll {
				got, err = ForAllPerWorker(o, s, newPred)
				want, _ = ForAll(Sequential(), s, func(a []int) bool { return !target(a) })
			} else {
				got, err = ExistsPerWorker(o, s, newPred)
				want, _ = Exists(Sequential(), s, target)
			}
			if err != nil || got != want {
				t.Errorf("workers %d forAll %v: (%v, %v), want (%v, nil)", o.Workers, forAll, got, err, want)
			}
			if made.Load() != wantWorkers {
				t.Errorf("workers %d forAll %v: %d predicates made, want %d", o.Workers, forAll, made.Load(), wantWorkers)
			}
		}
	}
}

// TestWorkerPredStart: a per-worker predicate is told where each prefix
// its worker claims begins. With no witness every assignment is visited,
// so the starts are exactly the prefixes' first assignments — one per
// prefix under a pool, the space's first under the sequential engine —
// and every other assignment comes without the flag.
func TestWorkerPredStart(t *testing.T) {
	s := Uniform(6, 3) // 729 assignments
	for _, o := range []Options{Sequential(), Parallel(3)} {
		var mu sync.Mutex
		var starts [][]int
		visits := 0
		newPred := func() WorkerPred {
			return func(a []int, start bool) bool {
				mu.Lock()
				defer mu.Unlock()
				visits++
				if start {
					starts = append(starts, append([]int(nil), a...))
				}
				return false
			}
		}
		if got, err := ExistsPerWorker(o, s, newPred); got || err != nil {
			t.Fatalf("workers %d: (%v, %v), want (false, nil)", o.Workers, got, err)
		}
		depth, prefixes := 0, 1
		if o.pool() > 1 {
			depth, prefixes = splitDepth(o, s)
		}
		if visits != 729 || len(starts) != prefixes {
			t.Fatalf("workers %d: %d visits, %d starts; want 729 visits, %d starts", o.Workers, visits, len(starts), prefixes)
		}
		seen := map[string]bool{}
		for _, a := range starts {
			seen[fmt.Sprint(a[:depth])] = true
			for _, c := range a[depth:] {
				if c != 0 {
					t.Errorf("workers %d: start at %v is not the first assignment below its prefix", o.Workers, a)
				}
			}
		}
		if len(seen) != prefixes {
			t.Errorf("workers %d: starts cover %d distinct prefixes, want %d", o.Workers, len(seen), prefixes)
		}
	}
}

// TestEmptySpace: the Len == 0 space has exactly one empty assignment.
func TestEmptySpace(t *testing.T) {
	for _, o := range []Options{Sequential(), Parallel(0)} {
		yes, err := Exists(o, Binary(0), func(a []int) bool { return len(a) == 0 })
		if err != nil || !yes {
			t.Fatalf("workers=%d: got %v, %v", o.Workers, yes, err)
		}
		no, err := Exists(o, Binary(0), func([]int) bool { return false })
		if err != nil || no {
			t.Fatalf("workers=%d: got %v, %v", o.Workers, no, err)
		}
	}
}

// TestCancellation: a cancelled context aborts a hopeless search in both
// engines and surfaces context.Canceled.
func TestCancellation(t *testing.T) {
	for _, o := range []Options{Sequential(), Parallel(0)} {
		ctx, cancel := context.WithCancel(context.Background())
		o.Ctx = ctx
		done := make(chan struct{})
		var found bool
		var err error
		go func() {
			defer close(done)
			// 2^40 assignments: unfinishable without cancellation.
			found, err = Exists(o, Binary(40), func([]int) bool { return false })
		}()
		time.Sleep(10 * time.Millisecond)
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: search did not stop after cancellation", o.Workers)
		}
		if found || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got found=%v err=%v, want context.Canceled", o.Workers, found, err)
		}
	}
}

// TestSmallSpaceFallback pins the tiny-space threshold: spaces under
// minParallelLeaves assignments skip the pool entirely.
func TestSmallSpaceFallback(t *testing.T) {
	if !smallSpace(Binary(5)) { // 32 < 64
		t.Fatal("Binary(5) should be below the parallel threshold")
	}
	if smallSpace(Binary(6)) { // 64 reaches it
		t.Fatal("Binary(6) should reach the parallel threshold")
	}
	yes, err := Exists(Parallel(8), Binary(5), func(a []int) bool { return rank(Binary(5), a) == 31 })
	if err != nil || !yes {
		t.Fatalf("tiny-space search broke: %v, %v", yes, err)
	}
}

func TestSplitDepthOverride(t *testing.T) {
	s := Uniform(6, 3)
	o := Parallel(4)
	o.SplitDepth = 2
	depth, prefixes := splitDepth(o, s)
	if depth != 2 || prefixes != 9 {
		t.Fatalf("depth=%d prefixes=%d, want 2, 9", depth, prefixes)
	}
	yes, err := Exists(o, s, func(a []int) bool { return rank(s, a) == 500 })
	if err != nil || !yes {
		t.Fatalf("got %v, %v", yes, err)
	}
}

func TestMapOrder(t *testing.T) {
	for _, o := range []Options{Sequential(), Parallel(0)} {
		out := Map(o, 100, func(i int) int { return i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", o.Workers, i, v)
			}
		}
	}
}
