package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"
)

// A game instance of games-cold: a non-strategy Σ/Π game whose outer
// level runs to exhaustion, so its leaf count is a fixed number.
type gameInst struct {
	name    string
	arb     *arbiterT
	g       *graphT
	ids     []string // nil: the small locally unique assignment
	domains []domainT
	prep    *preparedT
	want    bool // the reference engine's value
}

// bitMachine builds a one-round machine whose verdict at a node is
// accept(label, certs); certificates missing a bit read as "0".
func bitMachine(name string, accept func(label string, certs []string) bool) *machineT {
	type st struct{ ok bool }
	return &machineT{
		Name:   name,
		Init:   func(in inputT) any { return &st{ok: accept(in.Label, in.Certs)} },
		Round:  func(any, int, []string) ([]string, bool) { return nil, true },
		Output: func(s any) string { return map[bool]string{true: "1", false: "0"}[s.(*st).ok] },
	}
}

func bitOf(s string) byte {
	if s == "" {
		return '0'
	}
	return s[0]
}

// countInits wraps m so every node start (Init) bumps n. The name is
// kept, so memo keys are those of the unwrapped machine.
func countInits(m *machineT, n *atomic.Int64) *machineT {
	if n == nil {
		return m
	}
	w := *m
	init := m.Init
	w.Init = func(in inputT) any { n.Add(1); return init(in) }
	return &w
}

// gameSet is the fixed games-cold rotation; leaves counts inits into
// every machine. The seed draws only the rotation order: the labels
// decide how far Eve's inner searches run, so seed-drawn labels made
// the work of a rotation differ from seed to seed.
func gameSet(seed int64, leaves *atomic.Int64) ([]*gameInst, error) {
	rng := rand.New(rand.NewSource(seed))
	parity := bitMachine("bench:triple-parity", func(label string, c []string) bool {
		return len(c) == 3 && bitOf(c[0])^bitOf(c[1])^bitOf(c[2])^label[0] == 0
	})
	acceptAll := bitMachine("bench:accept-all", func(string, []string) bool { return true })
	// Lemma 11: Eve must match a selected label with a one-bit
	// certificate; a '0' label makes the Σ1 game false, so the outer
	// level is enumerated in full.
	match := bitMachine("bench:match-selected", func(label string, c []string) bool {
		return len(c) >= 1 && c[0] == label && label == "1"
	})
	oneBit := bitMachine("bench:one-bit", func(_ string, c []string) bool { return len(c) >= 1 && len(c[0]) == 1 })
	p5 := relabel(pathGraph(5), []string{"0", "1", "1", "0", "1"})
	p7 := relabel(pathGraph(7), []string{"1", "0", "1", "1", "0", "1", "0"})
	u := uniformDomain
	set := []*gameInst{
		// Σ3 with a single outer move: the universal level beneath it is
		// enumerated in full (and is the level that fans out).
		{name: "triple-parity-sigma3-P5", arb: newArbiter(countInits(parity, leaves), sigma(3), 8), g: p5,
			domains: []domainT{u(5, 0), u(5, 1), u(5, 1)}},
		// TestSymmetryPrunes: C6 with period-3 identifiers, where the
		// rotation by 3 halves the outer enumeration.
		{name: "pi1-C6-period3", arb: newArbiter(countInits(acceptAll, leaves), pi(1), 8), g: cycleGraph(6),
			ids: []string{"0", "1", "10", "0", "1", "10"}, domains: []domainT{u(6, 1)}},
		{name: "pi1-C9-period3", arb: newArbiter(countInits(acceptAll, leaves), pi(1), 8), g: cycleGraph(9),
			ids: []string{"0", "1", "10", "0", "1", "10", "0", "1", "10"}, domains: []domainT{u(9, 1)}},
		{name: "lemma11-relativized-P7", arb: newArbiter(countInits(relativize(match, oneBit, sigma(1)), leaves), sigma(1), 8),
			g: p7, domains: []domainT{u(7, 1)}},
		// Catalog arbiter on a generator graph that is not 4-colorable.
		{name: "4-colorable-K5", arb: newArbiter(countInits(kColorableMachine(4), leaves), sigma(1), 2),
			g: completeGraph(5), domains: []domainT{u(5, 2)}},
	}
	rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
	return set, nil
}

// prepare builds every instance's simulation setup.
func prepareSet(set []*gameInst) error {
	for _, gi := range set {
		var err error
		if gi.ids != nil {
			gi.prep, err = prepareWithIDs(gi.g, gi.ids)
		} else {
			gi.prep, err = prepareServed(gi.g)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", gi.name, err)
		}
	}
	return nil
}

// gameOp is one timed evaluation; it reports the op's memo counters.
func gameOp(gi *gameInst) (memoCounts, error) {
	memo := newMemo()
	v, err := gameValue(gi.arb, gi.prep, gi.domains, memo)
	st := memoStats(memo)
	mc := memoCounts{hits: st.Hits, misses: st.Misses, waits: st.Waits}
	if err != nil {
		return mc, fmt.Errorf("%s: %w", gi.name, err)
	}
	if v != gi.want {
		return mc, fmt.Errorf("%s: value %t, reference engine says %t", gi.name, v, gi.want)
	}
	return mc, nil
}

type memoCounts struct{ hits, misses, waits uint64 }

// runGames runs games-cold: one caller, direct calls, the instance set
// in rotation, a fresh subgame memo per op.
func runGames(c config) (*outcome, error) {
	var leaves atomic.Int64
	var counter *atomic.Int64
	if c.traced {
		counter = &leaves
	}
	set, err := gameSet(c.seed, counter)
	if err != nil {
		return nil, err
	}
	// Ground truth first, untimed: the reference engine on each game.
	if err := prepareSet(set); err != nil {
		return nil, err
	}
	for _, gi := range set {
		if gi.want, err = referenceValue(gi.arb, gi.prep, gi.domains); err != nil {
			return nil, fmt.Errorf("%s: reference: %w", gi.name, err)
		}
	}
	// Set-up: prepare the set and play each game once, so lazy
	// initialization is paid before the window.
	var setups []float64
	for r := 0; r < setupReps; r++ {
		t := time.Now()
		if err := prepareSet(set); err != nil {
			return nil, err
		}
		for _, gi := range set {
			if _, err := gameOp(gi); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	leaves.Store(0)

	out := &outcome{metrics: metricSet{}, clients: 1}
	var lat []float64
	perInst := map[string][]int64{}
	var memo memoCounts
	var engineTime time.Duration
	var leafSum int64
	heap := startHeapSampler()
	before := readUsage()
	deadline := time.Now().Add(c.window)
	for i := 0; time.Now().Before(deadline); i++ {
		gi := set[i%len(set)]
		l0 := leaves.Load()
		t := time.Now()
		mc, err := gameOp(gi)
		d := time.Since(t)
		out.attempted++
		if err != nil {
			out.failed++
			if len(out.errs) < 5 {
				out.errs = append(out.errs, err.Error())
			}
			continue
		}
		engineTime += d
		lat = append(lat, ms(d))
		opLeaves := (leaves.Load() - l0) / int64(gi.g.N())
		leafSum += opLeaves
		perInst[gi.name] = append(perInst[gi.name], opLeaves)
		memo.hits += mc.hits
		memo.misses += mc.misses
		memo.waits += mc.waits
	}
	after := readUsage()
	heapMB := heap.finish()
	m := out.metrics
	if !c.traced {
		return batchEndToEnd(out, setups, lat, after.wall.Sub(before.wall), heapMB, tailQuantile("games-cold"))
	}
	zeroLayerMetrics(m)
	// Every exhaustive game visits the same leaves on every op.
	var total int64
	for _, gi := range set {
		counts := perInst[gi.name]
		for _, n := range counts {
			if n != counts[0] {
				return nil, fmt.Errorf("%s: leaf count varied across ops (%d vs %d)", gi.name, n, counts[0])
			}
		}
		if len(counts) > 0 {
			total += counts[0]
		}
	}
	ops := float64(len(lat))
	m.add("core.engine_p50_ms", median(lat), "ms")
	m.add("core.leaves_per_op", float64(total)/float64(len(set)), "count")
	if leafSum > 0 {
		m.add("simulate.leaf_ns", float64(engineTime.Nanoseconds())/float64(leafSum), "ns")
	}
	m.add("core.memo_hit_frac", ratio(memo.hits, memo.hits+memo.misses), "ratio")
	m.add("core.memo_waits_per_op", float64(memo.waits)/ops, "count")
	runtimeMetrics(before, after, len(lat), m)
	// The experiments layer, which no end-to-end workload covers: one
	// timed pass over the index, after the window, every report checked.
	for _, e := range experimentIndex() {
		t := time.Now()
		ok := e.run()
		m.add("experiments."+e.id+"_ms", ms(time.Since(t)), "ms")
		out.attempted++
		if !ok {
			out.failed++
			out.errs = append(out.errs, "experiment "+e.id+": report not OK")
		}
	}
	return out, nil
}

// batchEndToEnd fills the end-to-end rows of a closed-loop batch run.
func batchEndToEnd(out *outcome, setups, lat []float64, wall time.Duration, heapMB, tailQ float64) (*outcome, error) {
	p50, ok50 := percentile(lat, 0.5)
	tail, okTail := percentile(lat, tailQ)
	if !ok50 || !okTail {
		return nil, fmt.Errorf("only %d ops in the window: too few for the reported percentiles", len(lat))
	}
	m := out.metrics
	m.add("setup_s", median(setups), "s")
	m.add("latency_p50_ms", p50, "ms")
	m.add("latency_tail_ms", tail, "ms")
	m.add("ops_per_s", float64(len(lat))/wall.Seconds(), "1/s")
	m.add("heap_peak_mb", heapMB, "MiB")
	return out, nil
}
