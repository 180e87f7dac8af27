package simulate

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the batched simulation scheduler: many executions —
// differing machines and/or certificate lists — against one Prepared
// instance, spread across a worker pool. It is the substrate for the
// exhaustive game evaluations of internal/core (thousands of certificate
// assignments on one (graph, id)) and for experiment sweeps that pit
// several machines against the same instance.

// Job is one execution of the batch: a machine plus the per-node
// certificate lists it receives (nil for none).
type Job struct {
	Machine *Machine
	Certs   [][]string
}

// BatchOptions configure a Batch call.
type BatchOptions struct {
	// Workers is the scheduler pool size: 0 means one worker per
	// available CPU, 1 runs the jobs strictly in order on the calling
	// goroutine.
	Workers int
	// Ctx, when non-nil, cancels the batch: jobs not yet started when the
	// cancellation is observed are skipped (their results stay nil) and
	// Batch returns the context's error.
	Ctx context.Context
	// Run holds the per-execution options. Jobs are the unit of
	// parallelism: each runs its nodes on the worker that took it.
	Run Options
}

func (o BatchOptions) pool() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Batch executes every job against the prepared instance and returns the
// results in job order. The engine is deterministic, so results are
// byte-identical to running each job through a fresh Run call, whichever
// pool size is used — the batch correctness tests assert this. The error
// is the context's error if the batch was cancelled, otherwise the error
// of the lowest-indexed failing job; results of successful jobs are
// populated either way (nil marks skipped or failed jobs).
func (p *Prepared) Batch(jobs []Job, opt BatchOptions) ([]*Result, error) {
	results := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))
	workers := opt.pool()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i, j := range jobs {
			if opt.Ctx != nil {
				if err := opt.Ctx.Err(); err != nil {
					return results, err
				}
			}
			results[i], errs[i] = p.Run(j.Machine, j.Certs, opt.Run)
		}
		return results, firstError(jobs, errs)
	}
	var (
		cursor    atomic.Int64
		cancelled atomic.Bool
		wg        sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if opt.Ctx != nil && opt.Ctx.Err() != nil {
					cancelled.Store(true)
					return
				}
				i := int(cursor.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				results[i], errs[i] = p.Run(jobs[i].Machine, jobs[i].Certs, opt.Run)
			}
		}()
	}
	wg.Wait()
	if cancelled.Load() {
		return results, opt.Ctx.Err()
	}
	return results, firstError(jobs, errs)
}

// firstError returns the lowest-indexed non-nil error, annotated with
// the job's index and machine so the failing run is identifiable.
func firstError(jobs []Job, errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("simulate: batch job %d (%s): %w", i, jobs[i].Machine.Name, err)
		}
	}
	return nil
}
