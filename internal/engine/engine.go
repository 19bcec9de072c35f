// Package engine is the concurrent execution layer over the paper's O(n)
// analysis. The closed-form sweep of core.AnalyzeTreeCtx is embarrassingly
// parallel once the two serial summation passes of the Appendix have run:
// each node's second-order model and timing metrics are a pure function of
// (sums, section). A whole tree is analyzed in one of three ways, each
// with one job:
//
//   - core.AnalyzeTreeCtx is the serial sweep: the per-net oracle and the
//     bit-identity reference;
//   - Engine.AnalyzeTree shards the per-node sweep across a worker pool,
//     producing results bit-identical to the serial path;
//   - Session.Analyze is a resident net's view: it reuses its last result
//     while the tree's generation is unchanged and sweeps through its
//     engine otherwise.
//
// Batch is a bounded-concurrency scheduler for running many independent
// inputs (e.g. rlcdelay's multi-file loop) with per-task guard isolation
// and deterministic, input-ordered results.
//
// All entry points honor context cancellation with guard.ErrCanceled-classed
// errors, and worker goroutines run under guard panic isolation so a fault
// in one shard surfaces as a typed error instead of crashing the process.
package engine

import (
	"context"
	"sync"
	"sync/atomic"

	"eedtree/internal/core"
	"eedtree/internal/guard"
	"eedtree/internal/obs"
	"eedtree/internal/rlctree"
)

// Options configures an Engine. The zero value is usable: GOMAXPROCS
// workers.
type Options struct {
	// Workers is the number of goroutines used for per-node sweeps.
	// 0 (or negative) means runtime.GOMAXPROCS(0).
	Workers int
}

// Engine executes tree analyses on a worker pool. It is safe for
// concurrent use by multiple goroutines — the intended deployment is one
// shared Engine per process serving many requests.
type Engine struct {
	workers int
	hits    atomic.Uint64 // Session.Analyze calls answered from the held result
	misses  atomic.Uint64 // Session.Analyze calls that swept
}

// New returns an Engine with the given options.
func New(opts Options) *Engine {
	workers := opts.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	return &Engine{workers: workers}
}

// parallelThreshold is the tree size below which AnalyzeTree runs the
// sweep inline instead of spawning workers: for small trees the per-node
// closed forms finish faster than goroutine startup, and the serial path
// is bit-identical anyway.
const parallelThreshold = 2048

// checkEvery is how many nodes a worker processes between context checks,
// mirroring the serial sweep's cadence so cancellation latency is the same
// in both paths.
const checkEvery = 256

// AnalyzeTree is core.AnalyzeTreeCtx with the per-node closed-form sweep
// sharded across the engine's workers. The two O(n) summation passes of
// the paper's Appendix are inherently serial (each node's sums depend on
// its parent's) and run first on the calling goroutine; the per-node model
// construction and metric evaluation that follow are independent across
// nodes, so each worker fills a contiguous, disjoint shard of the result
// slice with no synchronization beyond the final join. The returned slice
// is owned by the caller.
//
// Results are bit-identical to the serial path: both call the same pure
// per-node kernel (core.AnalyzeNodeSums) on the same sums. On error the
// returned error is the one the serial sweep would have hit first (lowest
// node index); cancellation surfaces as a guard.ErrCanceled-classed error.
// Worker panics are isolated by guard.Run and reported as typed errors.
func (e *Engine) AnalyzeTree(ctx context.Context, t *rlctree.Tree) ([]core.NodeAnalysis, error) {
	n := t.Len()
	if n == 0 {
		return nil, guard.Newf(guard.ErrTopology, "core", "empty tree")
	}
	if err := guard.Check(ctx); err != nil {
		return nil, err
	}
	workers := min(e.workers, n)
	// Instrumentation is per-sweep (a few clock reads and histogram
	// records amortized over the whole tree), never per-node, so the
	// kernel loop below runs exactly as the uninstrumented one does —
	// TestSweepHistogramsPerSweep and TestSweepAllocsIndependentOfObs
	// pin it.
	lat := obs.Time(mSweepLatency)
	if workers == 1 || n < parallelThreshold {
		out, err := core.AnalyzeTreeCtx(ctx, t)
		if err == nil {
			mSweepWorkers.Observe(1)
			lat.End()
		}
		return out, err
	}

	sums := core.ElmoreSums(ctx, t)
	sweep := core.StartSweep(ctx)
	secs := t.Sections()
	out := make([]core.NodeAnalysis, n)

	// Contiguous sharding: worker w owns [w·chunk, (w+1)·chunk). Each
	// worker records at most one error together with the node index it
	// occurred at, so the join can report the lowest-index failure — the
	// same error a serial sweep would return.
	chunk := (n + workers - 1) / workers
	errs := make([]error, workers)
	errAt := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errAt[w] = hi
			errs[w] = guard.Run(ctx, func(ctx context.Context) error {
				for i := lo; i < hi; i++ {
					if (i-lo)%checkEvery == 0 {
						if err := guard.Check(ctx); err != nil {
							errAt[w] = i
							return err
						}
					}
					na, err := core.AnalyzeNodeSums(sums, secs[i])
					if err != nil {
						errAt[w] = i
						return err
					}
					out[i] = na
				}
				return nil
			})
		}(w, lo, hi)
	}
	wg.Wait()

	first := -1
	for w := range errs {
		if errs[w] != nil && (first < 0 || errAt[w] < errAt[first]) {
			first = w
		}
	}
	if first >= 0 {
		core.EndSweep(&sweep, nil)
		return nil, errs[first]
	}
	core.EndSweep(&sweep, out)
	mSweepWorkers.Observe(int64(workers))
	lat.End()
	return out, nil
}

// CacheStats is a point-in-time snapshot of how the engine's sessions
// answered whole-tree Session.Analyze calls.
type CacheStats struct {
	Hits   uint64 // answered from the session's held result
	Misses uint64 // swept the tree
}

// CacheStats returns the engine's session-result counters.
func (e *Engine) CacheStats() CacheStats {
	return CacheStats{Hits: e.hits.Load(), Misses: e.misses.Load()}
}
