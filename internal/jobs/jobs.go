// Package jobs is the asynchronous job engine behind the service's
// /v1/jobs routes: a bounded admission queue feeding a fixed worker
// pool, a per-job lifecycle (queued → running → done / failed /
// cancelled) with progress counters and context cancellation, and an
// in-memory result store whose finished entries expire after a TTL.
//
// Admission control is the queue bound: Submit never blocks — when the
// queue is full it fails with ErrQueueFull, which the HTTP layer maps
// to 429. Cancellation covers both halves of the lifecycle: a queued
// job is cancelled in place (the worker that eventually pops it skips
// it), and a running job has its context cancelled, so any evaluation
// that polls the context — every engine in this repository does —
// aborts mid-search.
//
// The engine also owns the zero-downtime half of the lifecycle.
// BeginDrain flips it into drain mode — new submissions fail with
// ErrDraining, idle workers park, and queued jobs are deliberately not
// started, so their journaled submit records re-admit them in the next
// incarnation — and Drain waits (bounded by its context) for running
// jobs to finish before closing. Submissions may carry an idempotency
// key: a key already bound to a live job answers with that job's
// status instead of admitting a duplicate, the binding is journaled
// with the submit record, and replay rebuilds it, so client retries
// across a crash or drain/restart boundary yield exactly one execution
// and one id.
//
// Durability is opt-in: an Engine constructed with a journal appends a
// fsynced record at every lifecycle transition and replays the journal
// on startup. Replay restores finished results into the store with
// their original timestamps (unless their TTL elapsed while the
// process was down — those stay expired), re-admits jobs that were
// queued or running at crash time through the Rehydrate hook (they
// re-run from scratch), and leaves cancelled jobs dead. The journal is
// bounded: TTL expiry retires a job's records, and once enough dead
// bytes accumulate the engine compacts the journal down to the records
// reconstructing the live set.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
)

// State is one point of the job lifecycle.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// States lists every lifecycle state in order; metrics iterate it so
// gauge series exist (at zero) before the first job arrives.
func States() []State {
	return []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled}
}

// Finished reports whether s is terminal.
func (s State) Finished() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

var (
	// ErrQueueFull is returned by Submit when the admission queue is at
	// capacity; callers map it to HTTP 429.
	ErrQueueFull = errors.New("jobs: admission queue full")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("jobs: engine closed")
	// ErrDraining is returned by Submit once BeginDrain has been called:
	// the engine is winding down for a restart and admits no new work.
	// Callers map it to HTTP 503 + Retry-After (the restarted instance
	// will accept the retry). Idempotent duplicates of already-admitted
	// keys are still answered — that is the point of the key.
	ErrDraining = errors.New("jobs: engine draining")
	// ErrNotFound is returned for ids that never existed or whose result
	// already expired from the TTL'd store.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrFinished is returned by Cancel on a job already in a terminal
	// state; callers map it to HTTP 409.
	ErrFinished = errors.New("jobs: job already finished")
)

// Func is the body of a job. It must honor ctx (return promptly with
// ctx.Err() once cancelled) and may report progress through p from any
// goroutine. The returned value is the job's result, retained in the
// store for the configured TTL.
type Func func(ctx context.Context, p *Progress) (any, error)

// RehydrateFunc rebuilds a job body from its journaled kind and spec
// so a job interrupted by a crash can re-run after replay. The spec is
// whatever opaque bytes the submitter passed to SubmitSpec.
type RehydrateFunc func(kind string, spec json.RawMessage) (Func, error)

// Progress is a job's progress counter pair, written by the job body
// and read by status snapshots; both sides use atomics, so no lock is
// shared with the engine.
type Progress struct{ done, total atomic.Int64 }

// SetTotal publishes the total number of work items, once known.
func (p *Progress) SetTotal(n int64) { p.total.Store(n) }

// Add records n more items done. Safe from multiple goroutines.
func (p *Progress) Add(n int64) { p.done.Add(n) }

// Snapshot returns (done, total).
func (p *Progress) Snapshot() (int64, int64) { return p.done.Load(), p.total.Load() }

// Config configures an Engine. The zero value is usable: one worker, a
// 64-deep queue, 15-minute result retention, the wall clock, no
// persistence.
type Config struct {
	// Workers is the number of job workers (concurrently running jobs).
	// 0 means 1: background jobs serialize by default so they cannot
	// starve the synchronous request path sharing the process.
	Workers int
	// Queue is the admission-queue depth — how many jobs may wait beyond
	// the ones running. 0 means 64; negative is a drain mode that
	// rejects every submission.
	Queue int
	// TTL is how long a finished job's result is retained; 0 means 15
	// minutes.
	TTL time.Duration
	// Now is the clock, injectable for TTL tests; nil means time.Now.
	// Replay compares journaled finish timestamps against this clock, so
	// results whose TTL elapsed while the process was down stay dead.
	Now func() time.Time
	// Journal, when non-nil, makes the engine durable: every lifecycle
	// transition is appended (fsynced) before it is acknowledged, and
	// New replays the journal's recovered records into the store. The
	// journal's lifetime is the caller's — Close does not close it.
	Journal *journal.Journal
	// Rehydrate rebuilds job bodies from journaled (kind, spec) pairs at
	// replay. A replayed queued/running job whose rehydration fails is
	// restored as failed instead of silently dropped.
	Rehydrate RehydrateFunc
	// Observe, when non-nil, receives the engine's phase durations —
	// obs.PhaseQueueWait (submit → worker pickup) and obs.PhaseJobRun
	// (body execution) — so the service can feed them into its
	// per-phase histograms. Called outside the engine mutex is NOT
	// guaranteed; the hook must be cheap and must not call back into
	// the engine.
	Observe func(phase string, d time.Duration)
}

// Event is one entry of a job's timeline: submit → queued → running
// → journaled → done/failed/cancelled, each stamped by the engine
// clock. For durable engines the timestamps come from the same
// values the journal records, so replay reconstructs the timeline
// byte-identically (the crash-recovery contract on GET /v1/jobs/{id}
// bodies covers the events too).
type Event struct {
	T     time.Time `json:"t"`
	Phase string    `json:"phase"`
	Msg   string    `json:"msg,omitempty"`
}

// maxEvents bounds a job's timeline; the lifecycle emits at most a
// handful, the bound only guards repeated cancel requests.
const maxEvents = 16

// Job is the engine's internal record. All fields except progress are
// guarded by the engine mutex; external callers only ever see Status
// snapshots.
type job struct {
	id         string
	seq        int64
	kind       string
	spec       json.RawMessage // journaled re-submission payload
	idemKey    string          // client idempotency key, "" when none
	fn         Func
	progress   Progress
	state      State
	cancelReq  bool
	cancel     context.CancelFunc // set while running
	result     any
	resultJSON json.RawMessage // canonical result bytes, for the journal
	err        error
	created    time.Time
	started    time.Time // worker pickup; zero until running
	finished   time.Time
	events     []Event
}

// addEvent appends to the job timeline (engine mutex held), bounded.
func (j *job) addEvent(t time.Time, phase, msg string) {
	if len(j.events) < maxEvents {
		j.events = append(j.events, Event{T: t, Phase: phase, Msg: msg})
	}
}

// Status is an externally visible snapshot of one job, shaped for the
// service's JSON responses.
type Status struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State State  `json:"state"`
	// Done/Total are the progress counters (Total 0 until the job body
	// publishes it).
	Done  int64 `json:"done"`
	Total int64 `json:"total"`
	// CancelRequested is set once Cancel reached a running job whose
	// body has not returned yet.
	CancelRequested bool   `json:"cancel_requested,omitempty"`
	Error           string `json:"error,omitempty"`
	Result          any    `json:"result,omitempty"`
	// Seq is the admission sequence number — the stable sort key of the
	// paginated job listing (ids are "j<seq>").
	Seq int64 `json:"seq"`
	// Events is the job's timeline: submit → queued → running →
	// journaled → done/failed/cancelled, stamped by the engine clock.
	Events []Event `json:"events,omitempty"`
}

// Stats is the engine's aggregate bookkeeping for metrics: live jobs by
// state, queue occupancy, monotone lifetime counters, and — when the
// engine is durable — the journal's bookkeeping.
type Stats struct {
	Workers       int           `json:"workers"`
	QueueDepth    int           `json:"queue_depth"`
	QueueCapacity int           `json:"queue_capacity"`
	States        map[State]int `json:"states"`
	// Draining reports whether BeginDrain has been called: the engine
	// is refusing new work while running jobs finish.
	Draining bool           `json:"draining"`
	Totals   LifetimeTotals `json:"totals"`
	// Journal is nil when the engine runs without persistence.
	Journal *JournalStats `json:"journal,omitempty"`
}

// LifetimeTotals are monotone counters over the engine's lifetime (they
// survive TTL expiry of the underlying jobs).
type LifetimeTotals struct {
	Submitted uint64 `json:"submitted"`
	Rejected  uint64 `json:"rejected"`
	Done      uint64 `json:"done"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	Expired   uint64 `json:"expired"`
	// IdemHits counts submissions answered with an existing job because
	// their idempotency key was already bound — work the dedup saved.
	IdemHits uint64 `json:"idempotent_hits"`
}

// ReplayStats counts what the startup replay did.
type ReplayStats struct {
	// Replayed is the number of finished jobs restored into the store
	// with their original timestamps.
	Replayed uint64 `json:"replayed"`
	// Restarted is the number of jobs that were queued or running at
	// crash time and were re-admitted to run from scratch.
	Restarted uint64 `json:"restarted"`
	// Expired is the number of finished jobs whose TTL elapsed while the
	// process was down; they were not resurrected.
	Expired uint64 `json:"expired"`
}

// JournalStats combines the journal's on-disk bookkeeping with the
// engine's replay counters and append-error count.
type JournalStats struct {
	journal.Stats
	Replay ReplayStats `json:"replay"`
	// AppendErrors counts lifecycle records that failed to persist
	// (submission-time failures reject the submission instead).
	AppendErrors uint64 `json:"append_errors"`
}

// Engine runs jobs from a bounded queue on a fixed worker pool. The
// queue is a FIFO slice under the engine mutex (not a channel), so
// cancelling a queued job removes it in place — the slot frees for new
// admissions immediately and the reported depth is always the number
// of jobs actually waiting.
type Engine struct {
	mu     sync.Mutex
	cond   *sync.Cond // signaled when queue grows or the engine closes
	jobs   map[string]*job
	queue  []*job // FIFO of queued jobs; cancel removes in place
	depth  int    // admission bound on len(queue)
	seq    int64
	closed bool

	// draining is the graceful-shutdown latch: once set, submissions
	// fail with ErrDraining, idle workers park instead of popping, and
	// queued jobs stay queued (their journaled submit records re-admit
	// them in the next incarnation).
	draining bool
	// running counts jobs currently executing a body; Drain waits for it
	// to reach zero. The cond is broadcast on every decrement while
	// draining.
	running int
	// idem maps a live idempotency key to the job id it admitted; the
	// binding is journaled with the submit record and dies with the job.
	idem map[string]string

	workers int
	ttl     time.Duration
	now     func() time.Time
	observe func(phase string, d time.Duration) // nil-safe via observePhase
	totals  LifetimeTotals

	jnl        *journal.Journal
	rehydrate  RehydrateFunc
	replay     ReplayStats
	appendErrs uint64

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
}

// New builds an Engine, replays its journal (when configured), and
// starts its workers.
func New(cfg Config) *Engine {
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	depth := cfg.Queue
	switch {
	case depth == 0:
		depth = 64
	case depth < 0:
		depth = 0
	}
	ttl := cfg.TTL
	if ttl <= 0 {
		ttl = 15 * time.Minute
	}
	now := cfg.Now
	if now == nil {
		now = time.Now //lint:wallclock production default; tests inject Config.Now
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		jobs:       make(map[string]*job),
		idem:       make(map[string]string),
		depth:      depth,
		workers:    workers,
		ttl:        ttl,
		now:        now,
		observe:    cfg.Observe,
		jnl:        cfg.Journal,
		rehydrate:  cfg.Rehydrate,
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	e.cond = sync.NewCond(&e.mu)
	if e.jnl != nil {
		e.replayJournal() // before the workers: replay owns the state
	}
	for w := 0; w < workers; w++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// replayJournal reconstructs the store from the journal's recovered
// records. Runs before the workers start, so no locking is needed.
//
// The per-job state machine is last-record-wins: submit → queued,
// start → running, done/failed/cancelled → terminal. Then, in
// admission order: finished jobs whose TTL has not yet elapsed
// (measured against the injectable clock, not wall time at replay) are
// restored with their original timestamps; finished jobs past their
// TTL stay expired; cancelled jobs stay dead; queued and running jobs
// are re-admitted through Rehydrate and re-run from scratch.
func (e *Engine) replayJournal() {
	byID := make(map[string]*job)
	var order []string
	for _, rec := range e.jnl.Replay() {
		switch rec.Type {
		case journal.TypeCheckpoint:
			// Compaction barrier: carries the admission-sequence watermark,
			// so ids are never reused even after every journaled job has
			// been compacted away.
			if rec.Seq > e.seq {
				e.seq = rec.Seq
			}
		case journal.TypeSubmit:
			if _, dup := byID[rec.ID]; !dup {
				order = append(order, rec.ID)
			}
			byID[rec.ID] = &job{
				id:      rec.ID,
				seq:     rec.Seq,
				kind:    rec.Kind,
				spec:    rec.Spec,
				idemKey: rec.Idem,
				state:   StateQueued,
				created: rec.When(),
			}
			if rec.Seq > e.seq {
				e.seq = rec.Seq
			}
		case journal.TypeStart:
			if j, ok := byID[rec.ID]; ok {
				j.state = StateRunning
				j.started = rec.When()
			}
		case journal.TypeDone:
			if j, ok := byID[rec.ID]; ok {
				j.state = StateDone
				j.resultJSON = rec.Result
				if len(rec.Result) > 0 && string(rec.Result) != "null" {
					j.result = rec.Result
				}
				j.progress.SetTotal(rec.Total)
				j.progress.Add(rec.Done)
				j.finished = rec.When()
			}
		case journal.TypeFailed:
			if j, ok := byID[rec.ID]; ok {
				j.state = StateFailed
				j.err = errors.New(rec.Error)
				j.finished = rec.When()
			}
		case journal.TypeCancelled:
			if j, ok := byID[rec.ID]; ok {
				j.state = StateCancelled
				j.err = context.Canceled
				j.finished = rec.When()
			}
		}
	}
	sort.Slice(order, func(a, b int) bool { return byID[order[a]].seq < byID[order[b]].seq })
	cutoff := e.now().Add(-e.ttl)
	for _, id := range order {
		j := byID[id]
		switch j.state {
		case StateDone, StateFailed:
			if j.finished.Before(cutoff) {
				// The TTL elapsed while the server was down: the result
				// must not resurrect.
				e.replay.Expired++
				e.jnl.Retire(j.id)
				continue
			}
			// Rebuild the timeline the live job carried: every event is
			// stamped from a journaled record time, so the GET body is
			// byte-identical to the pre-crash one.
			j.events = replayEvents(j)
			e.jobs[j.id] = j
			e.replay.Replayed++
		case StateCancelled:
			// Cancelled jobs stay dead across restarts.
			e.jnl.Retire(j.id)
		default: // queued or running at crash time: re-run from scratch
			fn, err := e.rehydrateJob(j)
			if err != nil {
				// Don't drop the job silently — and don't retry it forever
				// on every restart: record the failure durably.
				j.state = StateFailed
				j.err = fmt.Errorf("jobs: rehydrate after crash: %w", err)
				j.finished = e.now()
				j.events = replayEvents(j)
				e.jobs[j.id] = j
				e.appendJournal(journal.Record{
					Type: journal.TypeFailed, ID: j.id,
					Error: j.err.Error(), Time: j.finished.UnixNano(),
				})
				continue
			}
			// Re-admission keeps the original id, seq, and creation time,
			// resets progress, and bypasses the queue bound: recovered work
			// is never dropped for depth. The timeline restarts with it:
			// the job is genuinely queued again.
			j.fn = fn
			j.state = StateQueued
			j.started = time.Time{}
			j.addEvent(j.created, "submit", "")
			j.addEvent(j.created, "queued", "")
			e.jobs[j.id] = j
			e.queue = append(e.queue, j)
			e.replay.Restarted++
		}
	}
	// Rebind idempotency keys for every job that survived replay — a
	// duplicate submission after the restart answers with the original
	// job, whatever state it is in. Expired and cancelled jobs free
	// their keys instead: their outcome is gone, so a retry legitimately
	// runs fresh work.
	for id, j := range e.jobs {
		if j.idemKey != "" {
			e.idem[j.idemKey] = id
		}
	}
}

// replayEvents reconstructs the timeline a terminal job accumulated
// while it was live, purely from journaled record timestamps
// (created, started, finished), so a replayed job's status — events
// included — is byte-identical to its pre-crash one.
func replayEvents(j *job) []Event {
	evs := make([]Event, 0, 5)
	evs = append(evs,
		Event{T: j.created, Phase: "submit"},
		Event{T: j.created, Phase: "queued"})
	if !j.started.IsZero() {
		evs = append(evs, Event{T: j.started, Phase: "running"})
	}
	evs = append(evs, Event{T: j.finished, Phase: "journaled"})
	terminal := Event{T: j.finished, Phase: string(j.state)}
	if j.state == StateFailed && j.err != nil {
		terminal.Msg = j.err.Error()
	}
	return append(evs, terminal)
}

// rehydrateJob rebuilds the body of a replayed job.
func (e *Engine) rehydrateJob(j *job) (Func, error) {
	if e.rehydrate == nil {
		return nil, errors.New("no rehydrate hook configured")
	}
	return e.rehydrate(j.kind, j.spec)
}

// observePhase feeds the Observe hook when one is configured.
func (e *Engine) observePhase(phase string, d time.Duration) {
	if e.observe != nil {
		e.observe(phase, d)
	}
}

// appendJournal persists one lifecycle record, counting (not
// propagating) failures — the in-memory state has already transitioned
// and remains authoritative for this process's lifetime. The returned
// ok reports whether the record is durable (true on a journal-less
// engine would lie, so there it is false and no "journaled" event is
// ever claimed).
func (e *Engine) appendJournal(rec journal.Record) (ok bool) {
	if e.jnl == nil {
		return false
	}
	if err := e.jnl.Append(rec); err != nil {
		e.appendErrs++
		return false
	}
	return true
}

// Close cancels every running job, stops accepting submissions, and
// waits for the workers to drain (jobs still queued run against the
// already-cancelled base context and finish as cancelled). The journal,
// if any, is left open — its lifetime belongs to the caller.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
	e.baseCancel()
	e.wg.Wait()
}

// DrainResult reports what a graceful drain accomplished.
type DrainResult struct {
	// Finished counts jobs that were running when the drain began and
	// completed within the deadline — their verdicts are journaled and
	// survive the restart.
	Finished int `json:"finished"`
	// Interrupted counts running jobs still unfinished at the deadline;
	// they are cancelled in memory only, so — exactly like a crash —
	// replay re-runs them on the next start.
	Interrupted int `json:"interrupted"`
	// Queued counts jobs still waiting when the engine closed; their
	// journaled submit records re-admit them on the next start.
	Queued int `json:"queued"`
}

// BeginDrain flips the engine into drain mode: submissions fail with
// ErrDraining (idempotent duplicates of admitted keys still answer
// with the original job), idle workers park, and no queued job is
// started — the queue stays journaled as queued for the next
// incarnation. Running jobs keep running; Drain waits for them.
// Idempotent; there is no way back short of a restart.
func (e *Engine) BeginDrain() {
	e.mu.Lock()
	if !e.draining {
		e.draining = true
		e.cond.Broadcast()
	}
	e.mu.Unlock()
}

// Drain gracefully winds the engine down: BeginDrain, wait for the
// running jobs to finish until ctx expires, then Close. Jobs that beat
// the deadline keep their journaled verdicts; stragglers are cancelled
// through the base context and re-run after restart, exactly as if the
// process had crashed. Queued jobs are never started — they replay as
// queued. Safe to call once; the engine is closed when it returns.
func (e *Engine) Drain(ctx context.Context) DrainResult {
	e.BeginDrain()
	// Wake the wait loop when the deadline passes. context.AfterFunc
	// (rather than a timer) keeps the bounded wait on the caller's
	// context tree.
	stop := context.AfterFunc(ctx, func() {
		e.mu.Lock()
		e.cond.Broadcast()
		e.mu.Unlock()
	})
	e.mu.Lock()
	began := e.running
	for e.running > 0 && ctx.Err() == nil {
		e.cond.Wait()
	}
	res := DrainResult{
		Finished:    began - e.running,
		Interrupted: e.running,
		Queued:      len(e.queue),
	}
	e.mu.Unlock()
	stop()
	e.Close()
	return res
}

// Submit admits a job of the given kind. It never blocks: when the
// queue is full the job is rejected with ErrQueueFull. On success the
// returned Status is the freshly queued job (ids are "j1", "j2", … in
// admission order). Jobs submitted this way carry no spec, so a
// durable engine cannot re-run them after a crash — service callers
// use SubmitSpec.
func (e *Engine) Submit(kind string, fn Func) (Status, error) {
	return e.SubmitSpec(kind, nil, fn)
}

// SubmitSpec admits a job along with its opaque re-submission spec —
// the bytes a durable engine journals and later hands to Rehydrate to
// re-run the job after a crash. On a durable engine the submit record
// is fsynced before the job is admitted: a journal write failure
// rejects the submission rather than accepting work that could not be
// made durable.
func (e *Engine) SubmitSpec(kind string, spec json.RawMessage, fn Func) (Status, error) {
	st, _, err := e.SubmitIdem(context.Background(), kind, "", spec, fn)
	return st, err
}

// SubmitIdem admits a job like SubmitSpec, deduplicated by the
// caller's idempotency key (empty means none). A key already bound to
// a live job returns that job's current status with dup=true and
// admits nothing — even while the engine drains, so a client retrying
// through a drain/restart gets the original job instead of a second
// execution. The binding is journaled inside the submit record and
// rebuilt by replay, so the dedup holds across crash and drain/restart
// boundaries; it ends when the job's record expires from the store.
//
// ctx carries request attribution only — when it holds an obs trace,
// the durable submit's journal append (and its fsync) land as spans
// on the submitting request. It does not bound or cancel the
// admission.
func (e *Engine) SubmitIdem(ctx context.Context, kind, key string, spec json.RawMessage, fn Func) (Status, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return Status{}, false, ErrClosed
	}
	e.sweepLocked()
	if key != "" {
		if id, ok := e.idem[key]; ok {
			if j, ok := e.jobs[id]; ok {
				e.totals.IdemHits++
				return e.statusLocked(j), true, nil
			}
			// The bound job expired from the store; the key is free again.
			delete(e.idem, key)
		}
	}
	if e.draining {
		return Status{}, false, ErrDraining
	}
	if len(e.queue) >= e.depth {
		e.totals.Rejected++
		return Status{}, false, ErrQueueFull
	}
	seq := e.seq + 1
	j := &job{
		id:      "j" + strconv.FormatInt(seq, 10),
		seq:     seq,
		kind:    kind,
		spec:    spec,
		idemKey: key,
		fn:      fn,
		state:   StateQueued,
		created: e.now(),
	}
	if e.jnl != nil {
		rec := journal.Record{
			Type: journal.TypeSubmit, ID: j.id, Seq: seq,
			Kind: kind, Spec: spec, Idem: key, Time: j.created.UnixNano(),
		}
		if err := e.jnl.AppendCtx(ctx, rec); err != nil {
			return Status{}, false, fmt.Errorf("jobs: journal submit: %w", err)
		}
	}
	j.addEvent(j.created, "submit", "")
	j.addEvent(j.created, "queued", "")
	e.seq = seq
	e.queue = append(e.queue, j)
	e.jobs[j.id] = j
	if key != "" {
		e.idem[key] = j.id
	}
	e.totals.Submitted++
	e.cond.Signal()
	return e.statusLocked(j), false, nil
}

// Get returns the job's status, or ErrNotFound for unknown/expired ids.
func (e *Engine) Get(id string) (Status, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sweepLocked()
	j, ok := e.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	return e.statusLocked(j), nil
}

// Page lists jobs in admission order (by sequence number), starting
// strictly after the given sequence, returning at most limit entries
// filtered to the given states (nil or empty means every state). The
// returned next is the sequence of the last entry (pass it back as
// after to continue) and more reports whether further entries existed
// beyond the page at snapshot time. The seq ordering is stable across
// completions and expiries between pages: a job never moves, it can
// only disappear.
func (e *Engine) Page(after int64, limit int, states map[State]bool) (items []Status, next int64, more bool) {
	if limit <= 0 {
		limit = 50
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sweepLocked()
	matched := make([]*job, 0, len(e.jobs))
	for _, j := range e.jobs {
		if j.seq > after && (len(states) == 0 || states[j.state]) {
			matched = append(matched, j)
		}
	}
	sort.Slice(matched, func(a, b int) bool { return matched[a].seq < matched[b].seq })
	if len(matched) > limit {
		matched, more = matched[:limit], true
	}
	items = make([]Status, len(matched))
	next = after
	for i, j := range matched {
		items[i] = e.statusLocked(j)
		next = j.seq
	}
	return items, next, more
}

// Cancel cancels the job: a queued job flips to cancelled in place (the
// worker that pops it will skip it), a running job has its context
// cancelled and finishes as cancelled once its body returns. Cancelling
// a finished job fails with ErrFinished; unknown ids with ErrNotFound.
func (e *Engine) Cancel(id string) (Status, error) {
	e.mu.Lock()
	e.sweepLocked()
	j, ok := e.jobs[id]
	if !ok {
		e.mu.Unlock()
		return Status{}, ErrNotFound
	}
	switch j.state {
	case StateQueued:
		// Remove the job from the waiting line so its admission slot
		// frees immediately (a tombstone left in the queue would keep
		// answering ErrQueueFull for work that no longer exists).
		for i, q := range e.queue {
			if q == j {
				e.queue = append(e.queue[:i], e.queue[i+1:]...)
				break
			}
		}
		j.state = StateCancelled
		j.err = context.Canceled
		j.finished = e.now()
		e.totals.Cancelled++
		if e.appendJournal(journal.Record{
			Type: journal.TypeCancelled, ID: j.id, Time: j.finished.UnixNano(),
		}) {
			j.addEvent(j.finished, "journaled", "")
		}
		j.addEvent(j.finished, string(StateCancelled), "")
		st := e.statusLocked(j)
		e.mu.Unlock()
		return st, nil
	case StateRunning:
		j.cancelReq = true
		cancel := j.cancel
		// Journal the cancellation intent now: if the process crashes
		// before the body returns, replay must not re-run a job the
		// caller cancelled. Should the body still complete successfully,
		// the worker's later done record wins (last record per id).
		when := e.now()
		j.addEvent(when, "cancel_requested", "")
		e.appendJournal(journal.Record{
			Type: journal.TypeCancelled, ID: j.id, Time: when.UnixNano(),
		})
		st := e.statusLocked(j)
		e.mu.Unlock()
		cancel()
		return st, nil
	default:
		st := e.statusLocked(j)
		e.mu.Unlock()
		return st, ErrFinished
	}
}

// Stats returns the engine's aggregate bookkeeping.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sweepLocked()
	states := make(map[State]int, 5)
	for _, s := range States() {
		states[s] = 0
	}
	for _, j := range e.jobs {
		states[j.state]++
	}
	// Queued jobs and the waiting line are the same set by construction
	// (cancel removes from both), so the depth is the state count.
	st := Stats{
		Workers:       e.workers,
		QueueDepth:    states[StateQueued],
		QueueCapacity: e.depth,
		States:        states,
		Draining:      e.draining,
		Totals:        e.totals,
	}
	if e.jnl != nil {
		st.Journal = &JournalStats{
			Stats:        e.jnl.Stats(),
			Replay:       e.replay,
			AppendErrors: e.appendErrs,
		}
	}
	return st
}

// statusLocked snapshots j under the engine mutex.
func (e *Engine) statusLocked(j *job) Status {
	done, total := j.progress.Snapshot()
	st := Status{
		ID:              j.id,
		Kind:            j.kind,
		State:           j.state,
		Done:            done,
		Total:           total,
		CancelRequested: j.cancelReq && j.state == StateRunning,
		Seq:             j.seq,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.state == StateDone {
		st.Result = j.result
	}
	if len(j.events) > 0 {
		// Copy: the worker appends to j.events after the snapshot is
		// handed out and marshaled outside the engine mutex.
		st.Events = append([]Event(nil), j.events...)
	}
	return st
}

// sweepLocked drops finished jobs whose TTL elapsed. Called under the
// engine mutex from every public entry point, so the store is bounded
// by traffic without a janitor goroutine. Expired jobs retire their
// journal records; once enough dead bytes accumulate the journal is
// compacted down to the live set.
func (e *Engine) sweepLocked() {
	cutoff := e.now().Add(-e.ttl)
	for id, j := range e.jobs {
		if j.state.Finished() && j.finished.Before(cutoff) {
			delete(e.jobs, id)
			if j.idemKey != "" && e.idem[j.idemKey] == id {
				// The key dies with the job: a later submission with the
				// same key legitimately runs fresh work.
				delete(e.idem, j.idemKey)
			}
			e.totals.Expired++
			if e.jnl != nil {
				e.jnl.Retire(id)
			}
		}
	}
	if e.jnl != nil && e.jnl.ShouldCompact() {
		e.compactLocked()
	}
}

// compactLocked rewrites the journal down to the records that
// reconstruct the live set: per job, its submit record plus the record
// of whatever state it is in now. Failures count as append errors —
// the journal keeps its dead bytes and the next sweep retries.
func (e *Engine) compactLocked() {
	live := make([]*job, 0, len(e.jobs))
	for _, j := range e.jobs {
		live = append(live, j)
	}
	sort.Slice(live, func(a, b int) bool { return live[a].seq < live[b].seq })
	recs := make([]journal.Record, 0, 2*len(live)+1)
	// The checkpoint barrier leads: replay discards everything before
	// it, and its Seq keeps the id sequence monotone across restarts
	// even when the live set is empty.
	recs = append(recs, journal.Record{
		Type: journal.TypeCheckpoint, Seq: e.seq, Time: e.now().UnixNano(),
	})
	for _, j := range live {
		recs = append(recs, journal.Record{
			Type: journal.TypeSubmit, ID: j.id, Seq: j.seq,
			Kind: j.kind, Spec: j.spec, Idem: j.idemKey, Time: j.created.UnixNano(),
		})
		switch j.state {
		case StateRunning:
			if j.cancelReq {
				// Cancel already journaled its intent; compaction must not
				// rewrite the job as merely running, or a crash before the
				// body returns would re-run cancelled work.
				recs = append(recs, journal.Record{
					Type: journal.TypeCancelled, ID: j.id, Time: e.now().UnixNano(),
				})
				continue
			}
			recs = append(recs, journal.Record{
				Type: journal.TypeStart, ID: j.id, Time: j.created.UnixNano(),
			})
		case StateDone:
			if j.resultJSON == nil {
				// The result never made it into the journal (it was not
				// marshalable); preserve the worker's failed record rather
				// than inventing a done record with a missing payload.
				recs = append(recs, journal.Record{
					Type: journal.TypeFailed, ID: j.id,
					Error: "jobs: result not journalable", Time: j.finished.UnixNano(),
				})
				continue
			}
			done, total := j.progress.Snapshot()
			recs = append(recs, journal.Record{
				Type: journal.TypeDone, ID: j.id, Result: j.resultJSON,
				Done: done, Total: total, Time: j.finished.UnixNano(),
			})
		case StateFailed:
			recs = append(recs, journal.Record{
				Type: journal.TypeFailed, ID: j.id,
				Error: j.err.Error(), Time: j.finished.UnixNano(),
			})
		case StateCancelled:
			recs = append(recs, journal.Record{
				Type: journal.TypeCancelled, ID: j.id, Time: j.finished.UnixNano(),
			})
		}
	}
	if err := e.jnl.Compact(recs); err != nil {
		e.appendErrs++
	}
}

func (e *Engine) worker() {
	defer e.wg.Done()
	e.mu.Lock()
	for {
		for len(e.queue) == 0 && !e.closed && !e.draining {
			e.cond.Wait()
		}
		if e.draining {
			// Graceful drain: park without popping, whatever the queue
			// holds — queued jobs must stay queued (their journaled submit
			// records re-admit them on the next start), not run against a
			// cancelled context and finish as cancelled the way a plain
			// Close's leftovers do below.
			e.mu.Unlock()
			return
		}
		if len(e.queue) == 0 { // closed and drained
			e.mu.Unlock()
			return
		}
		j := e.queue[0]
		e.queue = e.queue[1:]
		e.running++
		// Cancelled jobs never reach here — Cancel removes them from the
		// waiting line — so j is always genuinely queued.
		ctx, cancel := context.WithCancel(e.baseCtx)
		j.state = StateRunning
		j.cancel = cancel
		// One clock read stamps the start record, the running event, and
		// the queue-wait observation, so replay (which only has the
		// record) reconstructs the exact live timeline.
		j.started = e.now()
		j.addEvent(j.started, "running", "")
		e.appendJournal(journal.Record{
			Type: journal.TypeStart, ID: j.id, Time: j.started.UnixNano(),
		})
		e.mu.Unlock()
		e.observePhase(obs.PhaseQueueWait, j.started.Sub(j.created))

		result, err := runBody(j.fn, ctx, &j.progress)
		cancel()

		e.mu.Lock()
		e.running--
		if e.draining {
			// Drain blocks on running reaching zero; every finish while
			// draining is a potential last one.
			e.cond.Broadcast()
		}
		j.finished = e.now()
		e.observePhase(obs.PhaseJobRun, j.finished.Sub(j.started))
		done, total := j.progress.Snapshot()
		switch {
		case err == nil:
			j.state = StateDone
			j.result = result
			e.totals.Done++
			resultJSON, jerr := json.Marshal(result)
			if jerr != nil {
				// The result cannot survive a restart; journal the job as
				// failed so replay reports the loss instead of inventing a
				// result (the live store still serves the real value).
				e.appendJournal(journal.Record{
					Type: journal.TypeFailed, ID: j.id,
					Error: fmt.Sprintf("jobs: result not journalable: %v", jerr),
					Time:  j.finished.UnixNano(),
				})
				j.addEvent(j.finished, string(StateDone), "")
				break
			}
			j.resultJSON = resultJSON
			if e.appendJournal(journal.Record{
				Type: journal.TypeDone, ID: j.id, Result: resultJSON,
				Done: done, Total: total, Time: j.finished.UnixNano(),
			}) {
				j.addEvent(j.finished, "journaled", "")
			}
			j.addEvent(j.finished, string(StateDone), "")
		case j.cancelReq || errors.Is(err, context.Canceled):
			j.state = StateCancelled
			j.err = context.Canceled
			e.totals.Cancelled++
			// A graceful Close drains interrupted jobs as cancelled in
			// memory, but only user cancellation is journaled: shutdown is
			// not a verdict on the work, so a restart re-runs it — the
			// same recovery a crash gets.
			if j.cancelReq || !e.closed {
				if e.appendJournal(journal.Record{
					Type: journal.TypeCancelled, ID: j.id, Time: j.finished.UnixNano(),
				}) {
					j.addEvent(j.finished, "journaled", "")
				}
			}
			j.addEvent(j.finished, string(StateCancelled), "")
		default:
			j.state = StateFailed
			j.err = err
			e.totals.Failed++
			if e.appendJournal(journal.Record{
				Type: journal.TypeFailed, ID: j.id,
				Error: err.Error(), Time: j.finished.UnixNano(),
			}) {
				j.addEvent(j.finished, "journaled", "")
			}
			j.addEvent(j.finished, string(StateFailed), err.Error())
		}
	}
}

// runBody isolates the job body: a panic becomes a failed job, not a
// dead worker.
func runBody(fn Func, ctx context.Context, p *Progress) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("jobs: job panicked: %v", r)
		}
	}()
	return fn(ctx, p)
}
