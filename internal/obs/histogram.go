package obs

import "sync/atomic"

// DefaultLatencyBuckets are nanosecond upper bounds covering 1 µs to 10 s
// in roughly half-decade steps — wide enough for a cache hit on a tiny
// tree and a multi-second transient simulation to land in distinct
// buckets.
var DefaultLatencyBuckets = []int64{
	1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6,
	1e7, 3e7, 1e8, 3e8, 1e9, 3e9, 1e10,
}

// WorkerBuckets are upper bounds for pool-width histograms.
var WorkerBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128}

// Histogram is a fixed-bucket histogram over int64 samples (typically
// nanoseconds, fed by a Stage). Observe is lock-free and
// allocation-free: a linear scan over a handful of bounds, then one
// atomic add on the bucket and one on the running sum. The count is
// derived from the bucket totals at snapshot time, so a concurrent
// reader may see a sample's bucket before its sum — an acceptable skew
// for monitoring.
type Histogram struct {
	name, help string
	bounds     []int64 // ascending upper bounds; +Inf bucket implicit
	counts     []atomic.Uint64
	sum        atomic.Int64
}

func newHistogram(name, help string, bounds []int64) *Histogram {
	return &Histogram{
		name:   name,
		help:   help,
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Name returns the metric name.
func (h *Histogram) Name() string { return h.name }

// histSnapshot is a point-in-time copy of the histogram's state.
type histSnapshot struct {
	bounds []int64
	counts []uint64 // per-bucket (non-cumulative), len(bounds)+1
	sum    int64
	count  uint64
}

func (h *Histogram) snapshot() histSnapshot {
	s := histSnapshot{
		bounds: h.bounds,
		counts: make([]uint64, len(h.counts)),
		sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.counts[i] = h.counts[i].Load()
		s.count += s.counts[i]
	}
	return s
}

// Count returns the total number of samples recorded.
func (h *Histogram) Count() uint64 { return h.snapshot().count }

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }
