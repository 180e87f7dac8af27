// Package obs is the request-scoped tracing layer: every request the
// service front end serves gets a Trace (fresh, or adopted from an
// inbound W3C traceparent header), the trace rides the
// context.Context through service → jobs → journal, and the layers
// mark their phases with spans — shed wait, cache lookup, Prepare,
// memo, engine evaluation, journal append/fsync, job queue wait and
// run. One Tracer owns all the derived views so they cannot drift
// from each other:
//
//   - a bounded ring of completed traces (GET /v1/debug/traces),
//   - one structured slog line per request (promoted to WARN with the
//     full span dump past the slow-request threshold),
//   - per-phase cumulative latency histograms, surfaced through the
//     service Snapshot() into /v1/stats and /metrics as
//     lphd_phase_duration_seconds{phase=...}.
//
// The clock is injectable (clockinject-compliant): production uses
// time.Now, tests inject a fake and get deterministic span timings.
// Spans are cheap and zero-safe — StartSpan on a context without a
// trace returns the inert zero Span (a value, no allocation), and
// End on it is a no-op — so the instrumented layers never branch on
// whether tracing is on. The
// spanend analyzer in internal/lint enforces that every Start* call
// is matched by End on all paths.
package obs

import (
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Canonical phase names. The Tracer pre-registers all of them so the
// phase histograms appear in /metrics from the first scrape, before
// any request has run.
const (
	PhaseShedWait      = "shed_wait"      // bounded wait for worker budget
	PhaseCache         = "cache"          // Prepared-cache lookup (hit or fill)
	PhasePrepare       = "prepare"        // graph preparation on a cache miss
	PhaseMemo          = "memo"           // request-level memo lookup + fill
	PhaseEngine        = "engine"         // game evaluation proper
	PhaseJournalAppend = "journal_append" // whole journal append (frame + fsync)
	PhaseJournalFsync  = "journal_fsync"  // the fsync inside the append
	PhaseQueueWait     = "queue_wait"     // async job: submit → worker pickup
	PhaseJobRun        = "job_run"        // async job: body execution
)

// Phases returns the canonical phase names in a fixed order.
func Phases() []string {
	return []string{
		PhaseShedWait, PhaseCache, PhasePrepare, PhaseMemo, PhaseEngine,
		PhaseJournalAppend, PhaseJournalFsync, PhaseQueueWait, PhaseJobRun,
	}
}

// PhaseBuckets are the per-phase histogram upper bounds in seconds;
// the implicit final bucket is +Inf. Finer than the request-level
// buckets at the fast end: individual phases (cache hit, fsync) are
// microseconds-to-milliseconds where whole requests are not, and the
// fastest (a route key, a memo probe, a warm prepare) take a few to a
// few tens of microseconds, so the first bounds are 10, 25 and 50 µs —
// with 100 µs first, a quantile interpolated inside that bucket reads
// about 50 µs whatever the phase costs.
var PhaseBuckets = []float64{0.00001, 0.000025, 0.00005, 0.0001, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// Bucket is one cumulative histogram bucket, LE rendered the way
// Prometheus renders it ("0.005", "+Inf").
type Bucket struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// PhaseStats is the cumulative latency histogram of one phase.
type PhaseStats struct {
	Phase      string   `json:"phase"`
	Count      uint64   `json:"count"`
	SumSeconds float64  `json:"sum_seconds"`
	Buckets    []Bucket `json:"buckets"`
}

// phaseHist is the live (non-cumulative) histogram behind PhaseStats.
type phaseHist struct {
	buckets []uint64 // len(PhaseBuckets)+1, last is +Inf
	sum     float64
	count   uint64
}

func newPhaseHist() *phaseHist {
	return &phaseHist{buckets: make([]uint64, len(PhaseBuckets)+1)}
}

func (h *phaseHist) observe(secs float64) {
	i := sort.SearchFloat64s(PhaseBuckets, secs)
	h.buckets[i]++
	h.sum += secs
	h.count++
}

// TracerConfig configures a Tracer. The zero value is usable: wall
// clock, 128-trace ring, no logger, no slow threshold.
type TracerConfig struct {
	// Now is the injectable clock; nil means time.Now.
	Now func() time.Time
	// RingSize bounds the completed-trace ring; <= 0 means 128.
	RingSize int
	// Logger, when non-nil, gets one structured line per finished
	// trace (INFO, or WARN with the span dump past SlowRequest).
	Logger *slog.Logger
	// SlowRequest promotes traces at least this long to WARN with the
	// full span dump attached; 0 disables the promotion.
	SlowRequest time.Duration
}

// Tracer owns the trace lifecycle and every derived view: the
// completed-trace ring, the per-phase histograms, and the request
// log. One Tracer per Server.
type Tracer struct {
	now  func() time.Time
	ring *ring

	logger *slog.Logger
	slow   time.Duration

	mu     sync.Mutex
	phases map[string]*phaseHist
}

// NewTracer builds a Tracer; all canonical phases are pre-registered
// so their histograms render even before the first observation.
func NewTracer(cfg TracerConfig) *Tracer {
	now := cfg.Now
	if now == nil {
		now = time.Now //lint:wallclock production default; tests inject cfg.Now
	}
	size := cfg.RingSize
	if size <= 0 {
		size = 128
	}
	t := &Tracer{
		now:    now,
		ring:   newRing(size),
		logger: cfg.Logger,
		slow:   cfg.SlowRequest,
		phases: make(map[string]*phaseHist, len(Phases())),
	}
	for _, p := range Phases() {
		t.phases[p] = newPhaseHist()
	}
	return t
}

// Observe records one phase duration into the per-phase histogram.
// Unknown phases register lazily; negative durations clamp to zero
// (the injected clock may be frozen).
func (t *Tracer) Observe(phase string, d time.Duration) {
	if t == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	t.mu.Lock()
	h := t.phases[phase]
	if h == nil {
		h = newPhaseHist()
		t.phases[phase] = h
	}
	h.observe(d.Seconds())
	t.mu.Unlock()
}

// PhaseStats snapshots every phase histogram, cumulative buckets,
// sorted by phase name (deterministic exposition order).
func (t *Tracer) PhaseStats() []PhaseStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.phases))
	for name := range t.phases {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]PhaseStats, 0, len(names))
	for _, name := range names {
		h := t.phases[name]
		st := PhaseStats{
			Phase:      name,
			Count:      h.count,
			SumSeconds: h.sum,
			Buckets:    make([]Bucket, len(h.buckets)),
		}
		cum := uint64(0)
		for i, c := range h.buckets {
			cum += c
			le := "+Inf"
			if i < len(PhaseBuckets) {
				le = strconv.FormatFloat(PhaseBuckets[i], 'g', -1, 64)
			}
			st.Buckets[i] = Bucket{LE: le, Count: cum}
		}
		out = append(out, st)
	}
	return out
}

// P50 estimates the phase's median latency in seconds as the upper
// bound of the cumulative bucket the median falls in — a safe
// (pessimistic within one bucket) hint for Retry-After. ok is false
// while the phase has no observations. A median in the +Inf bucket
// reports the largest finite bound.
func (t *Tracer) P50(phase string) (secs float64, ok bool) {
	if t == nil {
		return 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.phases[phase]
	if h == nil || h.count == 0 {
		return 0, false
	}
	half := (h.count + 1) / 2
	cum := uint64(0)
	for i, c := range h.buckets {
		cum += c
		if cum >= half {
			if i < len(PhaseBuckets) {
				return PhaseBuckets[i], true
			}
			return PhaseBuckets[len(PhaseBuckets)-1], true
		}
	}
	return PhaseBuckets[len(PhaseBuckets)-1], true
}

// Traces returns up to limit completed traces, newest first,
// optionally filtered to one route pattern. limit <= 0 means all
// retained.
func (t *Tracer) Traces(limit int, route string) []TraceRecord {
	if t == nil {
		return nil
	}
	return t.ring.snapshot(limit, route)
}
