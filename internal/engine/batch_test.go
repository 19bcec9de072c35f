package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"eedtree/internal/guard"
)

// TestBatchOrderAndIsolation: results land at their input index regardless
// of scheduling; failures (including panics) in one task never disturb the
// others.
func TestBatchOrderAndIsolation(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		errs := Batch(context.Background(), 20, workers, func(_ context.Context, i int) error {
			switch {
			case i == 3:
				return fmt.Errorf("task %d failed", i)
			case i == 7:
				panic("task 7 exploded")
			}
			return nil
		})
		if len(errs) != 20 {
			t.Fatalf("workers=%d: got %d results, want 20", workers, len(errs))
		}
		for i, err := range errs {
			switch i {
			case 3:
				if err == nil || err.Error() != "task 3 failed" {
					t.Fatalf("workers=%d task 3: %v", workers, err)
				}
			case 7:
				if !errors.Is(err, guard.ErrInternal) {
					t.Fatalf("workers=%d task 7 panic not isolated: %v", workers, err)
				}
			default:
				if err != nil {
					t.Fatalf("workers=%d task %d: unexpected %v", workers, i, err)
				}
			}
		}
	}
}

// TestBatchBoundedConcurrency: no more than `workers` tasks run at once.
func TestBatchBoundedConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak int32
	gate := make(chan struct{})
	go func() {
		// Release all tasks together once the pool is saturated or the
		// whole batch is blocked on the semaphore.
		close(gate)
	}()
	errs := Batch(context.Background(), 12, workers, func(_ context.Context, i int) error {
		n := atomic.AddInt32(&inFlight, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
				break
			}
		}
		<-gate
		atomic.AddInt32(&inFlight, -1)
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}
	if p := atomic.LoadInt32(&peak); p > workers {
		t.Fatalf("peak concurrency %d exceeds workers %d", p, workers)
	}
}

// TestBatchCancelMidBatch: when the context fires partway through, tasks
// not yet started are short-circuited with guard.ErrCanceled while
// already-finished tasks keep their results — the per-input isolation
// contract of the rlcdelay batch. The queue and in-flight gauges end
// where they started.
func TestBatchCancelMidBatch(t *testing.T) {
	back := gaugesBack(t, mBatchQueued, mBatchInflight)
	ctx, cancel := context.WithCancel(context.Background())
	const n = 10
	errs := Batch(ctx, n, 1, func(_ context.Context, i int) error {
		if i == 4 {
			cancel() // fires while tasks 5..9 have not started
		}
		return nil
	})
	for i := 0; i <= 4; i++ {
		if errs[i] != nil {
			t.Fatalf("task %d ran before cancellation yet failed: %v", i, errs[i])
		}
	}
	for i := 5; i < n; i++ {
		if !errors.Is(errs[i], guard.ErrCanceled) {
			t.Fatalf("task %d after cancellation: %v, want guard.ErrCanceled", i, errs[i])
		}
	}
	back("a batch canceled midway")
}

func TestBatchEmptyAndDefaults(t *testing.T) {
	if errs := Batch(context.Background(), 0, 4, nil); errs != nil {
		t.Fatalf("empty batch returned %v", errs)
	}
	// workers <= 0 defaults to GOMAXPROCS and must still run everything.
	var ran int32
	errs := Batch(context.Background(), 5, 0, func(context.Context, int) error {
		atomic.AddInt32(&ran, 1)
		return nil
	})
	if len(errs) != 5 || atomic.LoadInt32(&ran) != 5 {
		t.Fatalf("default-workers batch ran %d/5 tasks", ran)
	}
}
