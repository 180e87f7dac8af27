package props

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/search"
)

// ThreeRoundThreeColorable decides the 3-round 3-colorability game of
// Example 1 (after Ajtai, Fagin, and Stockmeyer): first Eve chooses the
// colors of all degree-1 nodes, then Adam chooses the colors of all
// degree-2 nodes, and finally Eve chooses the colors of all remaining
// nodes. The graph has the property iff Eve can always force a proper
// 3-coloring. Exhaustive minimax over the three color blocks on the
// engine o.
//
// The pool is handed to exactly one minimax level: Eve's opening block
// (the outermost existential) when it is large enough to split,
// otherwise Adam's block — each worker evaluates the levels below it
// sequentially on worker-local color state. On instances where every
// block is tiny (e.g. both Figure 1 graphs, whose spaces are 3·9·27
// assignments) the engine's small-space fallback makes both engines take
// the same sequential path. A cancelled Options.Ctx at either searched
// level is returned as the error, never as a verdict.
func ThreeRoundThreeColorable(g *graph.Graph, o search.Options) (bool, error) {
	t := newThreeRoundGame(g)
	outerSpace := search.Uniform(len(t.deg1), 3)
	outerOpts := o
	adamOpts := o
	if search.Splittable(o, outerSpace) {
		adamOpts.Workers = 1
	} else {
		outerOpts.Workers = 1
	}
	var (
		errOnce sync.Once
		adamErr error
	)
	won, err := search.Exists(outerOpts, outerSpace, func(asm []int) bool {
		colors, put := t.scratch.Get()
		defer put()
		for i := range colors {
			colors[i] = -1
		}
		for i, u := range t.deg1 {
			colors[u] = asm[i]
		}
		stuck, err := t.adamStuck(adamOpts, colors)
		if err != nil {
			// End the outer search: its verdict is void either way.
			errOnce.Do(func() { adamErr = err })
			return true
		}
		return !stuck
	})
	if err == nil {
		err = adamErr
	}
	if err != nil {
		return false, err
	}
	return won, nil
}

// threeRoundGame is the immutable part of the minimax: the graph, its
// three color blocks partitioned by degree, and the pooled color
// buffers all levels draw from (every user fully initializes the buffer
// it takes, so the pool needs no cross-level invariant).
type threeRoundGame struct {
	g                *graph.Graph
	deg1, deg2, rest []int
	scratch          *search.Scratch[[]int]
}

func newThreeRoundGame(g *graph.Graph) *threeRoundGame {
	t := &threeRoundGame{g: g}
	for u, d := range g.Degrees() {
		switch d {
		case 1:
			t.deg1 = append(t.deg1, u)
		case 2:
			t.deg2 = append(t.deg2, u)
		default:
			t.rest = append(t.rest, u)
		}
	}
	t.scratch = search.NewScratch(func() []int { return make([]int, g.N()) })
	return t
}

// properSoFar reports whether no node of the block conflicts with an
// already-colored neighbor.
func (t *threeRoundGame) properSoFar(colors []int, nodes []int) bool {
	for _, u := range nodes {
		for _, v := range t.g.Neighbors(u) {
			if colors[v] >= 0 && colors[v] == colors[u] {
				return false
			}
		}
	}
	return true
}

// adamStuck reports whether some coloring of the degree-2 block leaves
// Eve without a proper completion, or the search's cancellation error.
// colors carries Eve's opening block and is never mutated: each
// (possibly concurrent) Adam coloring is written to a pooled
// worker-local copy.
func (t *threeRoundGame) adamStuck(o search.Options, colors []int) (bool, error) {
	return search.Exists(o, search.Uniform(len(t.deg2), 3), func(asm []int) bool {
		c, put := t.scratch.Get()
		defer put()
		copy(c, colors)
		for i, u := range t.deg2 {
			c[u] = asm[i]
		}
		return !t.eveFinishes(c)
	})
}

// eveFinishes reports whether some coloring of the remaining block
// completes a proper 3-coloring. It owns (and mutates) colors and
// always runs sequentially — it is the innermost level.
func (t *threeRoundGame) eveFinishes(colors []int) bool {
	done, _ := search.Exists(search.Sequential(), search.Uniform(len(t.rest), 3), func(asm []int) bool {
		for i, u := range t.rest {
			colors[u] = asm[i]
		}
		return t.properSoFar(colors, t.rest) &&
			t.properSoFar(colors, t.deg1) && t.properSoFar(colors, t.deg2)
	})
	return done
}
