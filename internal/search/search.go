// Package search provides a deterministic parallel exhaustive-search
// engine for the finite enumeration spaces underlying the paper's game
// evaluations: Eve's parent assignments, Adam's challenge sets, the
// color-set proposals of Example 7, and the coloring blocks of the
// Figure 1 minimax.
//
// A Space describes the enumeration as a sequence of positions, each with
// a finite number of choices; an assignment is one choice per position.
// The parallel engine splits lazily: the calling goroutine first walks
// the space in order, as the sequential engine does, and only once it
// has visited a fixed budget of assignments does it split the rest by
// prefix across a worker pool: a short prefix of the position sequence
// is enumerated centrally (as a mixed-radix counter claimed through an
// atomic cursor) and each worker exhausts the suffix below its claimed
// prefix. A space the first walk settles within the budget starts no
// goroutine. Exists and ForAll short-circuit through an atomic stop flag
// the moment any worker finds a witness (respectively a
// counterexample), and honor context.Context cancellation between
// leaves. A per-worker predicate may also vouch for assignments it has
// not been shown (its keep; see WorkerPred), and the walk then
// backjumps past them.
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
// value ok must be that of a Pred; start additionally tells it where
// its walks begin: start is true on the first assignment of the space
// (the sequential engine's walk, or the head walk that precedes a
// pool) and on the first assignment a worker visits below each prefix
// it claims from the pool. A predicate that carries state from one
// assignment to the next (a cache of its last evaluation, say) can drop
// it there, so that the work it does on a prefix does not depend on
// which prefixes its worker claimed before.
//
// keep vouches for assignments the predicate has not been shown: every
// assignment that agrees with this one on positions 0..keep−1 has the
// same value, so the engine skips those it has not visited yet (see
// ForEachPruned). A keep of Len or more vouches for no other
// assignment. Under a pool, the head walk skips across prefixes as the
// sequential engine does until it has spent its budget; from the end of
// the prefix it is then in, a keep at or below the split depth ends the
// walk of the current prefix only. The engine never skips a prefix the
// pool owns, so which assignments are visited depends only on the
// predicate's values, never on scheduling.
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

// headBudget is how many assignments the parallel engine visits
// sequentially, with one predicate and keeps that cross prefixes,
// before it hands the prefixes after its current one to the pool (lazy
// splitting: Tzannes, Caragea, Barua and Vishkin, "Lazy
// Binary-Splitting", PPoPP 2010). A level the head walk settles within
// the budget, such as a game level whose keeps skip most of it, never
// pays for a pool; a bigger budget delays the fan-out of the levels
// that do need one. It does not replace minParallelLeaves: a space of
// fewer assignments than that may still outlast the budget.
const headBudget = 16

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

// ExistsPerWorker is Exists with one predicate per worker: the caller
// calls newPred once for its own walk, the whole search under the
// sequential engine and the head walk under a pool, and, if the head
// walk spends its budget, every goroutine the pool starts calls it once
// more, before it visits any assignment. Each worker evaluates all of
// its assignments with the predicate it got, which also learns where
// each of its walks begins (see WorkerPred). A predicate that owns
// buffers therefore needs neither synchronization nor a per-assignment
// checkout, and the number of newPred calls depends only on the
// options, the space and the predicate's values, never on scheduling.
// newPred itself may run concurrently on several workers.
func ExistsPerWorker(o Options, s Space, newPred func() WorkerPred) (bool, error) {
	f := &fanout{o: o, s: s, prefixes: 1}
	if Splittable(o, s) {
		f.depth, f.prefixes = splitDepth(o, s)
	}
	return f.run(newPred)
}

// Splittable reports whether the engine may fan s out to a worker pool
// under the given options (false when the pool is a single worker or
// the space is below the small-space threshold). It does so only if
// the head walk spends its budget before the search is settled. Callers
// that choose which quantifier level to hand the pool — e.g. the
// three-round coloring minimax — should consult this instead of
// hard-coding the threshold.
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

// fanout is the shared state of one Exists: the prefix cursor the pool
// claims from and the flags that stop every walker. The prefixes have
// length depth; a single prefix means the space is never split.
type fanout struct {
	o               Options
	s               Space
	depth, prefixes int
	cursor          atomic.Int64 // next unclaimed prefix index
	stop            atomic.Bool  // a witness was found or the context is done
	found           atomic.Bool
	errOnce         sync.Once
	err             error
	wg              sync.WaitGroup
}

func (f *fanout) fail(err error) {
	f.errOnce.Do(func() { f.err = err })
	f.stop.Store(true)
}

// walker is one goroutine's share of a fanout: its predicate, the
// leaves it has visited, and whether its next leaf begins a walk.
type walker struct {
	f      *fanout
	pred   WorkerPred
	leaves int
	start  bool
}

// visit is a walk's yield: false ends the walk.
func (w *walker) visit(a []int) (bool, int) {
	f := w.f
	if f.stop.Load() {
		return false, 0
	}
	w.leaves++
	if f.o.Ctx != nil && w.leaves%ctxCheckStride == 0 {
		if err := f.o.Ctx.Err(); err != nil {
			f.fail(err)
			return false, 0
		}
	}
	first := w.start
	w.start = false
	ok, keep := w.pred(a, first)
	if ok {
		f.found.Store(true)
		f.stop.Store(true)
		return false, 0
	}
	return true, keep
}

// claim walks the prefixes it claims from the cursor, one at a time,
// until none is left or the search stops; cur is its cursor buffer.
func (w *walker) claim(cur []int) {
	f := w.f
	for !f.stop.Load() {
		if f.o.Ctx != nil {
			if err := f.o.Ctx.Err(); err != nil {
				f.fail(err)
				return
			}
		}
		i := f.cursor.Add(1) - 1
		if i >= int64(f.prefixes) {
			return
		}
		decodePrefix(f.s, f.depth, i, cur)
		w.start = true
		walk(f.s, f.depth, cur, w.visit)
	}
}

// run is Exists over f's space. The caller's goroutine walks the space
// sequentially first, with one predicate, and keeps cross prefixes as in
// the sequential engine: a space the walk settles within headBudget
// visits starts no goroutine. Once the budget is spent, the prefixes
// after the one the walk is in go to the pool, one goroutine fewer than
// its size, each with a fresh predicate. The walk finishes its own
// prefix, where a keep that would carry it past the prefix ends it,
// since the pool owns what follows, and then claims prefixes like any
// other walker.
func (f *fanout) run(newPred func() WorkerPred) (bool, error) {
	head := &walker{f: f, pred: newPred(), start: true}
	cur := make([]int, f.s.Len)
	split := false
	walk(f.s, 0, cur, func(a []int) (bool, int) {
		if split && zeroSuffix(a[f.depth:]) {
			// The walk has left its last prefix: a prefix's first
			// assignment is the only one with a zero suffix.
			return false, 0
		}
		more, keep := head.visit(a)
		if more && head.leaves == headBudget && f.prefixes > 1 {
			split = true
			f.split(rankPrefix(f.s, f.depth, a)+1, newPred)
		}
		return more, keep
	})
	if split {
		head.claim(cur)
		f.wg.Wait()
	}
	if f.o.Ctx != nil {
		if err := f.o.Ctx.Err(); err != nil {
			return false, err
		}
	}
	if f.err != nil {
		return false, f.err
	}
	return f.found.Load(), nil
}

// split starts the pool on the prefixes from next on: one goroutine
// fewer than the pool size, since the head walk joins it, and never
// more than the prefixes left.
func (f *fanout) split(next int64, newPred func() WorkerPred) {
	f.cursor.Store(next)
	for range min(int64(f.o.pool()-1), int64(f.prefixes)-next) {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			w := &walker{f: f, pred: newPred()}
			w.claim(make([]int, f.s.Len))
		}()
	}
}

// zeroSuffix reports whether every choice in suffix is 0.
func zeroSuffix(suffix []int) bool {
	for i := len(suffix) - 1; i >= 0; i-- {
		if suffix[i] != 0 {
			return false
		}
	}
	return true
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

// rankPrefix is decodePrefix's inverse: the index of cur[0:depth].
func rankPrefix(s Space, depth int, cur []int) int64 {
	var i int64
	for pos := 0; pos < depth; pos++ {
		i = i*int64(s.Size(pos)) + int64(cur[pos])
	}
	return i
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
