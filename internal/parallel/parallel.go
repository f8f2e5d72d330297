// Package parallel provides the bounded worker-pool scheduler that fans
// Smokescreen's expensive, embarrassingly parallel stages — profile and
// hypercube generation, detector output evaluation, experiment trial
// loops — out across goroutines.
//
// Design constraints, in priority order:
//
//  1. Determinism. Tasks never share mutable state through the scheduler;
//     every task writes its result into a caller-owned, per-index slot, and
//     any randomness a task needs comes from a stats.Stream child derived
//     from the task index. Results are therefore bit-for-bit identical to a
//     sequential execution regardless of worker count or completion order.
//  2. Bounded concurrency. At most `workers` goroutines run at once; work
//     is distributed by an atomic index (work stealing), so uneven task
//     costs — e.g. hypercube cells whose sweeps early-stop — do not idle
//     workers the way static chunking would.
//  3. Transparent failure. A panicking task panics the caller (first panic
//     wins); per-task errors are collected and the lowest-index one reported,
//     so the surfaced error does not depend on scheduling.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a parallelism request: n > 0 is used as-is, anything
// else (0 or negative) means "one worker per logical CPU" (GOMAXPROCS).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs fn(i) for every i in [0, n) on at most Workers(workers)
// goroutines and blocks until all calls return. With one worker (or n <= 1)
// it degrades to a plain loop on the calling goroutine — no goroutines, no
// synchronization. Task order is unspecified under parallelism; callers
// must make tasks independent and write results into per-index slots.
//
// If any task panics, forEach re-panics on the calling goroutine with the
// first recovered value after all workers have drained.
func forEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  atomic.Bool
		panicVal  any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() {
						panicVal = r
						panicked.Store(true)
					})
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || panicked.Load() {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		panic(fmt.Sprintf("parallel: task panicked: %v", panicVal))
	}
}

// ForCtx is the pool with cooperative cancellation and per-task errors:
// fn(i) runs for every i in [0, n) on at most Workers(workers) goroutines
// (one worker, or n <= 1, is a plain loop on the calling goroutine; task
// order is unspecified under parallelism, so tasks must be independent and
// write results into per-index slots). Workers stop claiming new indices
// once ctx is done, then drain. Started tasks always run to completion — a
// per-index slot is either fully written or untouched, never half-done —
// and a task error does not stop the remaining tasks, so the surfaced
// error is deterministic under any completion order: the lowest-index task
// error wins; if no task failed but ctx was cancelled, ctx.Err() is
// returned. A task panic is re-raised on the calling goroutine after all
// workers have drained.
func ForCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	errs := make([]error, n)
	forEach(n, workers, func(i int) {
		if ctx.Err() != nil {
			return
		}
		errs[i] = fn(i)
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MapCtx is ForCtx for stages that produce per-index results. On error or
// cancellation the partial result slice is returned alongside the
// (deterministic) error.
func MapCtx[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForCtx(ctx, n, workers, func(i int) error {
		var taskErr error
		out[i], taskErr = fn(i)
		return taskErr
	})
	return out, err
}
