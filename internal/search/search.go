// Package search provides a deterministic parallel exhaustive-search
// engine for the finite enumeration spaces underlying the paper's game
// evaluations: Eve's parent assignments, Adam's challenge sets, the
// color-set proposals of Example 7, and the coloring blocks of the
// Figure 1 minimax.
//
// A Space describes the enumeration as a sequence of positions, each with
// a finite number of choices; an assignment is one choice per position.
// The engine splits the space by prefix across a worker pool: a short
// prefix of the position sequence is enumerated centrally (as a
// mixed-radix counter claimed through an atomic cursor) and each worker
// exhausts the suffix below its claimed prefix. Exists and ForAll
// short-circuit through an atomic stop flag the moment any worker finds a
// witness (respectively a counterexample), and honor context.Context
// cancellation between leaves. A per-worker predicate may also vouch
// for assignments it has not been shown (its keep; see WorkerPred), and
// the walk then backjumps past them.
//
// Because predicates are required to be pure, the Boolean value of
// Exists/ForAll is independent of visitation order, so the parallel
// engine is equivalent to the sequential one; Options{Workers: 1} (or
// Sequential()) forces the strictly lexicographic order, and the test
// suite asserts parallel == sequential on every game in the repository
// under the race detector.
package search

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Space is a finite enumeration space: Len positions, position p offering
// Size(p) choices numbered 0..Size(p)-1. Size must be pure and >= 1 for
// every position. The space with Len == 0 has exactly one (empty)
// assignment.
type Space struct {
	Len  int
	Size func(pos int) int
}

// Binary returns the space of n Boolean choices ({0,1}^n).
func Binary(n int) Space {
	return Space{Len: n, Size: func(int) int { return 2 }}
}

// Uniform returns the space of n choices from a k-element domain (k^n).
func Uniform(n, k int) Space {
	return Space{Len: n, Size: func(int) int { return k }}
}

// Pred is a predicate over one full assignment. It must be pure (no side
// effects observable by other calls), must not retain the slice, and —
// under a parallel engine — must be safe for concurrent invocation.
type Pred func(assignment []int) bool

// WorkerPred is the predicate of one worker (see ExistsPerWorker). Its
// value ok must be that of a Pred; start additionally tells it where the
// prefixes the worker claims begin: start is true on the first
// assignment the worker visits below each claimed prefix, and under the
// sequential engine on the first assignment of the space. A predicate
// that carries state from one assignment to the next (a cache of its
// last evaluation, say) can drop it there, so that the work it does on
// a prefix does not depend on which prefixes its worker claimed before.
//
// keep vouches for assignments the predicate has not been shown: every
// assignment that agrees with this one on positions 0..keep−1 has the
// same value, so the engine skips those it has not visited yet (see
// ForEachPruned). A keep of Len or more vouches for no other
// assignment. Under a pool, a keep at or below the split depth ends the
// walk of the current prefix only: the engine never skips a prefix it
// has not claimed, so which assignments a worker visits does not
// depend on scheduling.
type WorkerPred func(assignment []int, start bool) (ok bool, keep int)

// Options selects the engine. The zero value is the parallel default.
type Options struct {
	// Workers is the size of the worker pool: 0 means one worker per
	// available CPU, 1 forces the sequential engine (strict lexicographic
	// order), and larger values bound the pool explicitly.
	Workers int
	// SplitDepth overrides the prefix length used to split the space
	// across workers; 0 picks a depth automatically (enough prefixes to
	// keep the pool busy, capped so the central counter stays small).
	SplitDepth int
	// Ctx, when non-nil, cancels the search: Exists and ForAll return
	// ctx.Err() as soon as the cancellation is observed. Map does not
	// poll Ctx — its few coarse tasks always run to completion so the
	// result slice is never partially filled.
	Ctx context.Context
}

// Sequential returns options forcing the sequential engine.
func Sequential() Options { return Options{Workers: 1} }

// Parallel returns options for a pool of the given size (0 = all CPUs).
func Parallel(workers int) Options { return Options{Workers: workers} }

// Default returns the package default: the parallel engine sized to the
// available CPUs.
func Default() Options { return Options{} }

func (o Options) pool() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ctxCheckStride is how many leaves a worker visits between context
// polls; a power of two so the check compiles to a mask.
const ctxCheckStride = 1024

// minParallelLeaves is the space size below which the parallel engine
// falls back to the sequential one: spawning a pool for a handful of
// assignments costs more than visiting them. Kept small deliberately —
// leaves can be arbitrarily expensive (a PointsTo leaf is itself an
// exponential challenge loop), so only trivially small spaces are
// exempted from fan-out.
const minParallelLeaves = 64

// maxPrefixes caps the size of the central prefix counter.
const maxPrefixes = 1 << 16

// ForEach enumerates every assignment of s in lexicographic order
// (position 0 most significant, choice 0 first), invoking yield with a
// shared cursor slice that callers must not retain; it stops early when
// yield returns false and reports whether every assignment was yielded.
func ForEach(s Space, yield func([]int) bool) bool {
	return ForEachPruned(s, func(a []int) (bool, int) { return yield(a), s.Len })
}

// ForEachPruned is ForEach with backjumping: yield also returns keep,
// and the walk then skips every later assignment that agrees with the
// current one on positions 0..keep−1 — the rest of the subtree below
// that prefix — and goes on at the next choice of position keep−1. A
// keep of Len or more skips nothing, and a keep of 0 ends the walk. It
// reports whether the walk ran to the end, skips included.
func ForEachPruned(s Space, yield func([]int) (bool, int)) bool {
	return ForEachPrunedOn(s, make([]int, s.Len), yield)
}

// ForEachPrunedOn is ForEachPruned with the walk's cursor in the
// caller's buffer cur (len(cur) ≥ s.Len), so repeated walks allocate
// nothing.
func ForEachPrunedOn(s Space, cur []int, yield func([]int) (bool, int)) bool {
	return walk(s, 0, cur[:s.Len], yield)
}

// walk is ForEachPruned over the assignments that agree with cur on
// positions 0..depth−1; a keep at or below depth ends the walk.
func walk(s Space, depth int, cur []int, yield func([]int) (bool, int)) bool {
	clear(cur[depth:])
	for {
		more, keep := yield(cur)
		if !more {
			return false
		}
		p := min(keep, s.Len) - 1
		for p >= depth && cur[p]+1 == s.Size(p) {
			p--
		}
		if p < depth {
			return true
		}
		cur[p]++
		clear(cur[p+1:])
	}
}

// Exists reports whether some assignment of s satisfies pred,
// short-circuiting on the first witness. With a cancelled context it
// returns false and the context's error; otherwise the error is nil and
// the value equals that of the sequential engine.
func Exists(o Options, s Space, pred Pred) (bool, error) {
	return ExistsPerWorker(o, s, func() WorkerPred {
		return func(a []int, _ bool) (bool, int) { return pred(a), s.Len }
	})
}

// ExistsPerWorker is Exists with one predicate per worker: every worker
// of the pool (the caller itself under the sequential engine) calls
// newPred once, before it visits any assignment, and evaluates all of
// its assignments with the predicate it got, which also learns where
// each prefix the worker claims begins (see WorkerPred). A predicate
// that owns buffers therefore needs neither synchronization nor a
// per-assignment checkout, and the number of newPred calls depends only
// on the options and the space, never on scheduling. newPred itself may
// run concurrently on several workers.
func ExistsPerWorker(o Options, s Space, newPred func() WorkerPred) (bool, error) {
	if o.pool() == 1 || smallSpace(s) {
		return existsSeq(o, s, newPred())
	}
	return existsPar(o, s, newPred)
}

// Splittable reports whether the engine would actually fan s out to a
// worker pool under the given options (false when the pool is a single
// worker or the space is below the small-space threshold). Callers that
// choose which quantifier level to hand the pool — e.g. the three-round
// coloring minimax — should consult this instead of hard-coding the
// threshold.
func Splittable(o Options, s Space) bool {
	return o.pool() > 1 && !smallSpace(s)
}

// smallSpace reports whether s has fewer than minParallelLeaves
// assignments.
func smallSpace(s Space) bool {
	return !s.MoreThan(minParallelLeaves - 1)
}

// MoreThan reports whether s has more than k assignments. It stops
// counting as soon as the count passes k.
func (s Space) MoreThan(k int) bool {
	total := 1
	for p := 0; p < s.Len; p++ {
		total *= s.Size(p)
		if total > k {
			return true
		}
	}
	return false
}

// ForAll reports whether every assignment of s satisfies pred,
// short-circuiting on the first counterexample. Error semantics match
// Exists.
func ForAll(o Options, s Space, pred Pred) (bool, error) {
	return ForAllPerWorker(o, s, func() WorkerPred {
		return func(a []int, _ bool) (bool, int) { return pred(a), s.Len }
	})
}

// ForAllPerWorker is ForAll with one predicate per worker (see
// ExistsPerWorker).
func ForAllPerWorker(o Options, s Space, newPred func() WorkerPred) (bool, error) {
	some, err := ExistsPerWorker(o, s, func() WorkerPred {
		pred := newPred()
		return func(a []int, start bool) (bool, int) {
			ok, keep := pred(a, start)
			return !ok, keep
		}
	})
	return !some && err == nil, err
}

func existsSeq(o Options, s Space, pred WorkerPred) (bool, error) {
	found := false
	leaves := 0
	var err error
	ForEachPruned(s, func(a []int) (bool, int) {
		leaves++
		if o.Ctx != nil && leaves%ctxCheckStride == 0 {
			if err = o.Ctx.Err(); err != nil {
				return false, 0
			}
		}
		ok, keep := pred(a, leaves == 1)
		if ok {
			found = true
			return false, 0
		}
		return true, keep
	})
	if err != nil {
		return false, err
	}
	if o.Ctx != nil {
		if err := o.Ctx.Err(); err != nil {
			return false, err
		}
	}
	return found, nil
}

func existsPar(o Options, s Space, newPred func() WorkerPred) (bool, error) {
	depth, prefixes := splitDepth(o, s)
	if prefixes == 1 {
		// Too small to split (or a single giant first position): the
		// sequential engine is the parallel engine's only worker.
		return existsSeq(o, s, newPred())
	}
	var (
		cursor  atomic.Int64 // next unclaimed prefix index
		stop    atomic.Bool  // a witness was found somewhere
		found   atomic.Bool
		errOnce sync.Once
		ctxErr  error
		wg      sync.WaitGroup
	)
	workers := o.pool()
	if workers > prefixes {
		workers = prefixes
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pred := newPred()
			cur := make([]int, s.Len)
			leaves := 0
			start := false // the next leaf is the first below its prefix
			// visit is the walk's yield: false aborts this prefix's walk.
			visit := func(a []int) (bool, int) {
				if stop.Load() {
					return false, 0
				}
				leaves++
				if o.Ctx != nil && leaves%ctxCheckStride == 0 && o.Ctx.Err() != nil {
					stop.Store(true)
					return false, 0
				}
				first := start
				start = false
				ok, keep := pred(a, first)
				if ok {
					found.Store(true)
					stop.Store(true)
					return false, 0
				}
				return true, keep
			}
			for {
				if stop.Load() {
					return
				}
				if o.Ctx != nil {
					if err := o.Ctx.Err(); err != nil {
						errOnce.Do(func() { ctxErr = err })
						stop.Store(true)
						return
					}
				}
				i := cursor.Add(1) - 1
				if i >= int64(prefixes) {
					return
				}
				decodePrefix(s, depth, i, cur)
				start = true
				walk(s, depth, cur, visit)
			}
		}()
	}
	wg.Wait()
	if o.Ctx != nil {
		if err := o.Ctx.Err(); err != nil {
			return false, err
		}
	}
	if ctxErr != nil {
		return false, ctxErr
	}
	return found.Load(), nil
}

// splitDepth picks the prefix length used to parcel the space out to the
// pool and returns it with the number of prefixes it generates. It grows
// the prefix until there are comfortably more chunks than workers, so the
// pool stays balanced even when the per-leaf cost is skewed.
func splitDepth(o Options, s Space) (depth, prefixes int) {
	target := o.pool() * 16
	prefixes = 1
	depth = 0
	if o.SplitDepth > 0 {
		//lint:coarse bounded by SplitDepth and maxPrefixes, no unbounded work
		for depth < s.Len && depth < o.SplitDepth && prefixes <= maxPrefixes {
			prefixes *= s.Size(depth)
			depth++
		}
		return depth, prefixes
	}
	//lint:coarse bounded by the prefix target and maxPrefixes, no unbounded work
	for depth < s.Len && prefixes < target && prefixes <= maxPrefixes {
		prefixes *= s.Size(depth)
		depth++
	}
	return depth, prefixes
}

// decodePrefix writes the i-th prefix (mixed radix, position 0 most
// significant) of length depth into cur[0:depth].
func decodePrefix(s Space, depth int, i int64, cur []int) {
	for pos := depth - 1; pos >= 0; pos-- {
		k := int64(s.Size(pos))
		cur[pos] = int(i % k)
		i /= k
	}
}

// Scratch pools decode buffers for predicate calls: a parallel
// evaluation visits exponentially many assignments but only ever needs a
// handful of buffers (one per worker) alive at once. Get returns a
// buffer and the release function that must run when the predicate is
// done with it; buffers are reused as-is, so predicates must overwrite
// (or restore) whatever state they read.
type Scratch[T any] struct{ pool sync.Pool }

// NewScratch returns a Scratch whose buffers are created by alloc.
func NewScratch[T any](alloc func() T) *Scratch[T] {
	s := &Scratch[T]{}
	s.pool.New = func() any { v := alloc(); return &v }
	return s
}

// Get returns a pooled buffer and its release function.
func (s *Scratch[T]) Get() (T, func()) {
	vp := s.pool.Get().(*T)
	return *vp, func() { s.pool.Put(vp) }
}

// Map evaluates f(0), …, f(n-1) across the worker pool and returns the
// results in index order. It is the engine's helper for coarse-grained
// independent tasks (e.g. running the separation experiments' machines);
// f must be safe for concurrent invocation under a parallel engine.
func Map[T any](o Options, n int, f func(int) T) []T {
	out := make([]T, n)
	if o.pool() == 1 || n <= 1 {
		//lint:coarse Map's contract: the result slice is never partially filled
		for i := 0; i < n; i++ {
			out[i] = f(i)
		}
		return out
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	workers := o.pool()
	if workers > n {
		workers = n
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			//lint:coarse Map's contract: the result slice is never partially filled
			for {
				i := int(cursor.Add(1) - 1)
				if i >= n {
					return
				}
				out[i] = f(i)
			}
		}()
	}
	wg.Wait()
	return out
}
