package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opFunc performs operation i of a workload's stream and reports
// whether it failed: a transport error, a non-2xx answer, or a wrong
// verdict all count.
type opFunc func(i int) error

// minBeyond is how many samples must lie above a percentile before it
// is reported.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of vals (milliseconds,
// any order) and whether at least minBeyond samples lie beyond it.
func percentile(vals []float64, q float64) (float64, bool) {
	if len(vals) == 0 {
		return 0, false
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if len(s)-rank < minBeyond {
		return 0, false
	}
	return s[rank-1], true
}

// segments is how many consecutive parts a serving phase is cut into;
// the serving metrics are medians over the parts, so a burst of host
// noise that covers one or two parts does not move them.
const segments = 5

// segmentQuantile cuts vals (in completion order) into segments equal
// consecutive runs and returns the median of their q-quantiles; ok is
// false when any run has fewer than minBeyond samples beyond its
// quantile.
func segmentQuantile(vals []float64, q float64) (float64, bool) {
	n := len(vals) / segments
	per := make([]float64, 0, segments)
	for k := 0; k < segments; k++ {
		v, ok := percentile(vals[k*n:(k+1)*n], q)
		if !ok {
			return 0, false
		}
		per = append(per, v)
	}
	return median(per), true
}

// median is the middle of vals (no reporting threshold: used for
// per-layer timings and repeated set-up).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// phaseResult is what one load phase observed.
type phaseResult struct {
	latMS     []float64 // per successful op
	lagMS     []float64 // open loop only: send time minus due time
	attempted int
	failed    int
	elapsed   time.Duration
	errs      []string // first few failures, for the report
	backlog   []int    // open loop only: ops issued but not finished, per quarter
}

type collector struct {
	mu sync.Mutex
	r  phaseResult
}

func (c *collector) done(lat, lag time.Duration, open bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.r.attempted++
	if open {
		c.r.lagMS = append(c.r.lagMS, ms(lag))
	}
	if err != nil {
		c.r.failed++
		if len(c.r.errs) < 5 {
			c.r.errs = append(c.r.errs, err.Error())
		}
		return
	}
	c.r.latMS = append(c.r.latMS, ms(lat))
}

// runOpen offers ops start, start+1, ... at a fixed rate for dur, sent
// by `clients` workers. Latency runs from when an op was due, not from
// when a worker got to it, so a stall counts against every op queued
// behind it; lag is how late each op was sent against its schedule.
func runOpen(rate float64, clients int, dur time.Duration, start int, do opFunc) phaseResult {
	total := int(rate * dur.Seconds())
	type job struct {
		i   int
		due time.Time
	}
	// Sized to every op of the phase, so the schedule never blocks on a
	// stalled system: the backlog grows in the queue instead.
	queue := make(chan job, total)
	var c collector
	var finished atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				sent := time.Now()
				err := do(j.i)
				c.done(time.Since(j.due), sent.Sub(j.due), true, err)
				finished.Add(1)
			}
		}()
	}
	t0 := time.Now()
	period := time.Duration(float64(time.Second) / rate)
	quarter := total / 4
	var backlog []int
	for k := 0; k < total; k++ {
		due := t0.Add(time.Duration(k) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		queue <- job{i: start + k, due: due}
		if quarter > 0 && (k+1)%quarter == 0 {
			backlog = append(backlog, k+1-int(finished.Load()))
		}
	}
	close(queue)
	wg.Wait()
	c.r.elapsed = time.Since(t0)
	c.r.backlog = backlog
	return c.r
}

// runClosed keeps `clients` callers busy for dur, each sending its next
// op only after the previous one answered; next hands out stream
// indices.
func runClosed(clients int, dur time.Duration, next func() int, do opFunc) phaseResult {
	var c collector
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(dur)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next()
				s := time.Now()
				err := do(i)
				c.done(time.Since(s), 0, false, err)
			}
		}()
	}
	wg.Wait()
	c.r.elapsed = time.Since(t0)
	return c.r
}

// checkSteady rejects an open-loop phase whose backlog or sending lag
// kept growing through the window: the offered rate was beyond what
// the system sustained, so its latencies describe a queue, not the
// system.
func checkSteady(r phaseResult, rate float64, clients int) error {
	b := r.backlog
	if len(b) >= 4 {
		growing := true
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				growing = false
			}
		}
		// A backlog of a tenth of a second of offered load, or a couple
		// of ops per client, is ordinary jitter.
		floor := int(math.Max(rate/10, float64(2*clients)))
		if growing && b[len(b)-1] > floor {
			return fmt.Errorf("open-loop backlog kept growing (%v ops at each quarter) at %.0f ops/s", b, rate)
		}
	}
	if n := len(r.lagMS); n >= 8 {
		q := n / 4
		first, last := median(r.lagMS[:q]), median(r.lagMS[n-q:])
		if last > 100 && last > 4*first {
			return fmt.Errorf("open-loop send lag grew from %.1f ms to %.1f ms (medians of first and last quarter)", first, last)
		}
	}
	return nil
}
