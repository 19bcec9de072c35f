package engine

import (
	"context"
	"runtime"
	"sync"

	"eedtree/internal/guard"
)

// defaultWorkers is the pool width used when a caller passes workers <= 0.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Batch runs fn(ctx, i) for every i in [0, n) with at most workers tasks
// in flight at once and returns the per-task errors indexed by i — the
// result order is deterministic regardless of scheduling. Each task runs
// under guard.Run, so a panic inside one task becomes that task's typed
// error without disturbing the others (per-input isolation, the contract
// of rlcdelay's multi-file batch).
//
// Cancellation: tasks already running observe ctx through fn; tasks that
// have not started when ctx fires are still invoked but guard.Run
// short-circuits them immediately, so every not-yet-complete slot reports
// a guard.ErrCanceled-classed error — exactly what the serial loop would
// have produced for the remaining inputs.
//
// workers == 0 means GOMAXPROCS; workers == 1 degenerates to the serial
// loop (tasks run in index order on the calling goroutine). A negative
// worker count is rejected inside the engine — every slot gets the same
// guard.ErrLimit-classed error and fn is never called — so callers that
// feed the bound from untrusted input (the daemon's /v1/batch, a CLI
// flag) share one validation site instead of each re-checking.
func Batch(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) []error {
	if n <= 0 {
		return nil
	}
	if workers < 0 {
		err := guard.Newf(guard.ErrLimit, "engine", "negative batch worker count %d (0 = one per CPU)", workers)
		errs := make([]error, n)
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	if workers == 0 {
		workers = defaultWorkers()
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	// Queue-depth accounting: every task starts queued; a task moves from
	// queued to in-flight when it begins executing. One gauge add up
	// front, two gauge moves per task — nothing on the per-node hot path.
	mBatchQueued.Add(int64(n))
	runOne := func(ctx context.Context, i int) error {
		mBatchTasks.Inc()
		mBatchQueued.Dec()
		mBatchInflight.Inc()
		defer mBatchInflight.Dec()
		return guard.Run(ctx, func(ctx context.Context) error { return fn(ctx, i) })
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			errs[i] = runOne(ctx, i)
		}
		return errs
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			errs[i] = runOne(ctx, i)
		}(i)
	}
	wg.Wait()
	return errs
}
