package main

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"
)

func TestStreamsDependOnlyOnSeed(t *testing.T) {
	a, b, c := hotStream(7, 400).bytes(), hotStream(7, 400).bytes(), hotStream(8, 400).bytes()
	if !bytes.Equal(a, b) {
		t.Error("seed 7 gave two different streams")
	}
	if bytes.Equal(a, c) {
		t.Error("seeds 7 and 8 gave the same stream")
	}
}

func TestGameSetDependsOnlyOnSeed(t *testing.T) {
	describe := func(seed int64) string {
		set, err := gameSet(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		for _, gi := range set {
			b.WriteString(gi.name + "\n")
		}
		return b.String()
	}
	if describe(3) != describe(3) {
		t.Error("seed 3 gave two different game sets")
	}
	if describe(3) == describe(4) {
		t.Error("seeds 3 and 4 gave the same game set")
	}
}

// A node that stalls once for 50 ms must raise the latency of the ops
// queued behind the stall, since latency runs from each op's due time,
// and must show up as sending lag.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const rate, dur = 400.0, 500 * time.Millisecond
	run := func(stall bool) phaseResult {
		var stalled atomic.Bool
		return runOpen(rate, 1, dur, 0, func(i int) error {
			if stall && i == 50 && !stalled.Swap(true) {
				time.Sleep(50 * time.Millisecond)
			}
			return nil
		})
	}
	calm, stalled := run(false), run(true)
	want := int(rate * dur.Seconds())
	if calm.attempted != want || stalled.attempted != want {
		t.Fatalf("attempted %d and %d ops, want %d", calm.attempted, stalled.attempted, want)
	}
	// At 400 ops/s, 20 ops fall due during the stall; the one right
	// behind it waited about 50 ms from its due time.
	if got := stalled.latMS[51]; got < 40 {
		t.Errorf("op queued behind the stall: latency %.1f ms, want ≥ 40", got)
	}
	// Those 20 ops are a tenth of the 200, so they set the p95.
	calmLag, _ := percentile(calm.lagMS, 0.95)
	stallLag, _ := percentile(stalled.lagMS, 0.95)
	if stallLag < 10 || stallLag <= calmLag {
		t.Errorf("p95 send lag %.2f ms with the stall, %.2f ms without: the stall did not show", stallLag, calmLag)
	}
	calmP95, _ := percentile(calm.latMS, 0.95)
	stallP95, _ := percentile(stalled.latMS, 0.95)
	if stallP95 < 10 || stallP95 <= calmP95 {
		t.Errorf("p95 latency %.2f ms with the stall, %.2f ms without", stallP95, calmP95)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if v, ok := percentile(vals, 0.9); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true (ten samples beyond)", v, ok)
	}
	if _, ok := percentile(vals, 0.91); ok {
		t.Error("p91 of 100 samples reported with only nine beyond it")
	}
	if _, ok := percentile(vals[:50], 0.99); ok {
		t.Error("p99 of 50 samples reported")
	}
}

func TestCheckSteadyRejectsGrowingBacklog(t *testing.T) {
	if checkSteady(phaseResult{backlog: []int{10, 40, 90, 200}}, 100, 2) == nil {
		t.Error("a backlog growing every quarter passed")
	}
	if err := checkSteady(phaseResult{backlog: []int{3, 2, 4, 3}}, 100, 2); err != nil {
		t.Errorf("a flat backlog was rejected: %v", err)
	}
}
