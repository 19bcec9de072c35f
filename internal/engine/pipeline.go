package engine

import (
	"context"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"eedtree/internal/core"
	"eedtree/internal/guard"
	"eedtree/internal/obs"
	"eedtree/internal/spef"
	"eedtree/internal/timing"
)

// This file is the full-chip streaming pipeline: spef.Stream yields nets
// one at a time from an io.Reader, a worker pool builds and analyzes
// each net's RLC tree with the closed-form kernel, and a single
// aggregation goroutine folds the per-net summaries into a
// timing.ChipAggregator. All three stages overlap through bounded
// channels, so memory is set by queue depth × largest net — flat in the
// chip's net count — while the math (per-net closed forms) stays cheap
// enough that parse bandwidth, not analysis, bounds throughput.
//
// Bit-identity discipline: a net analyzed by the pipeline produces
// exactly the result of the slow twin
//
//	spef.Parse → Net.Tree → core.AnalyzeTreeCtx → timing.SummarizeNet
//
// because both paths run those same functions on the same values; the
// pipeline adds concurrency between nets, never inside one net's math.

// PipelineConfig configures RunPipeline. The zero value is usable: one
// worker per CPU, a queue depth of twice the workers, default limits,
// and no critical-net retention.
type PipelineConfig struct {
	// Workers is the number of analyze workers (<= 0 means GOMAXPROCS).
	Workers int
	// QueueDepth bounds each inter-stage channel (<= 0 means 2×Workers).
	// Larger depths smooth bursty net sizes at the cost of memory.
	QueueDepth int
	// Limits bounds the SPEF input with the same taxonomy as spef.Parse.
	Limits guard.Limits
	// TopK is how many critical nets the chip report retains.
	TopK int
	// OnNet, when non-nil, observes every net result (successes and
	// per-net failures) on the aggregation goroutine, in stream order.
	OnNet func(NetResult)
}

// NetResult is the outcome of one net's trip through the pipeline.
type NetResult struct {
	Index   int    // 0-based position in the SPEF stream
	Net     string // net name
	Summary timing.NetSummary
	Err     error // per-net failure (tree build or analysis), nil on success
}

// PipelineStats describes one RunPipeline execution.
type PipelineStats struct {
	Nets     int `json:"nets"`     // nets that completed analysis
	Failed   int `json:"failed"`   // nets that failed tree build or analysis
	Sections int `json:"sections"` // tree sections analyzed

	FailedByClass map[string]int `json:"failed_by_class,omitempty"`

	Wall       time.Duration `json:"wall_ns"`      // whole-pipeline wall time
	NetsPerSec float64       `json:"nets_per_sec"` // (Nets+Failed) / Wall
	PeakHeap   uint64        `json:"peak_heap_b"`  // max sampled Go heap in use
	PeakRSS    uint64        `json:"peak_rss_b"`   // process VmHWM after the run (0 when unavailable)
	Workers    int           `json:"workers"`      // analyze workers used
	QueueDepth int           `json:"queue_depth"`  // per-stage channel capacity
}

// pipeJob is one parsed net traveling parse → analyze.
type pipeJob struct {
	index int
	net   *spef.Net
	units spef.Units
}

// RunPipeline streams SPEF from r through parse → tree-build → analyze →
// aggregate and returns the chip report. Per-net failures (non-tree
// parasitics, degenerate nets) are isolated: they count in the stats and
// reach OnNet, but do not stop the stream — the contract of the batch
// engine, kept. A malformed stream (syntax error, limit trip) or context
// cancellation terminates the run and is returned as err, alongside the
// report and stats for everything already aggregated.
func RunPipeline(ctx context.Context, r io.Reader, cfg PipelineConfig) (timing.ChipReport, PipelineStats, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 2 * workers
	}
	t0 := time.Now()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	jobs := make(chan pipeJob, depth)
	results := make(chan NetResult, depth)

	// Stage 1 — parse. One goroutine drains spef.Stream; a parse error
	// is terminal for the stream (the reader's position is undefined
	// afterwards), reported once through parseErr. The send blocks when
	// the queue is full: that is the backpressure that keeps a fast
	// parser from buffering the chip.
	var parseErr error
	var wgParse sync.WaitGroup
	wgParse.Add(1)
	go func() {
		defer wgParse.Done()
		defer close(jobs)
		s := spef.StreamLimits(r, cfg.Limits)
		for i := 0; ; i++ {
			lat := obs.Time(mPipeParseLatency)
			n, err := s.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				parseErr = err
				cancel()
				return
			}
			lat.End()
			mPipeNetsParsed.Inc()
			mPipeParseQueue.Inc()
			mPipeInflight.Inc()
			select {
			case jobs <- pipeJob{index: i, net: n, units: s.Units()}:
			case <-ctx.Done():
				mPipeParseQueue.Dec()
				mPipeInflight.Dec()
				spef.RecycleNet(n)
				return
			}
		}
	}()

	// Stage 2 — build + analyze. Workers convert each net to its RLC
	// tree, run the closed-form sweep, summarize, and recycle the net's
	// backing arrays. guard.Run isolates panics per net, and after a
	// cancellation it short-circuits the remaining queued jobs into
	// canceled-classed per-net results — the aggregator always drains
	// `results` until the workers exit, so the unconditional send below
	// cannot deadlock.
	var wgWork sync.WaitGroup
	for w := 0; w < workers; w++ {
		wgWork.Add(1)
		go func() {
			defer wgWork.Done()
			// One wide event per worker, reset for each net: failed nets
			// land in the flight recorder's capture buffer (Status 0 +
			// Class counts as interesting), healthy ones ride the ring for
			// /v1/debug style dumps.
			wctx := obs.WithEvent(ctx, &obs.WideEvent{})
			for job := range jobs {
				mPipeParseQueue.Dec()
				res := analyzeOne(wctx, job)
				mPipeResultQueue.Inc()
				results <- res
			}
		}()
	}
	go func() {
		wgWork.Wait()
		close(results)
	}()

	// Stage 3 — aggregate, on the calling goroutine. Single consumer:
	// the fold and the top-K heap need no locks. Results are reordered
	// back to stream order before folding — float sums are not
	// associative, so folding in completion order would make the report's
	// averages depend on worker scheduling by an ulp. The reorder buffer
	// holds at most the in-flight count (2×depth + workers), so it does
	// not disturb the flat-memory property.
	agg := timing.NewChipAggregator(cfg.TopK)
	stats := PipelineStats{
		FailedByClass: map[string]int{},
		Workers:       workers,
		QueueDepth:    depth,
	}
	var memStats runtime.MemStats
	const sampleEvery = 1024
	fold := func(res NetResult) {
		if res.Err != nil {
			stats.Failed++
			stats.FailedByClass[guard.ClassName(res.Err)]++
			mPipeNetFailures.Inc()
		} else {
			stats.Nets++
			stats.Sections += res.Summary.Sections
			agg.Add(res.Summary)
		}
		if cfg.OnNet != nil {
			cfg.OnNet(res)
		}
		if (stats.Nets+stats.Failed)%sampleEvery == 0 {
			runtime.ReadMemStats(&memStats)
			if memStats.HeapInuse > stats.PeakHeap {
				stats.PeakHeap = memStats.HeapInuse
			}
		}
	}
	pending := make(map[int]NetResult, depth)
	next := 0
	for res := range results {
		mPipeResultQueue.Dec()
		mPipeInflight.Dec()
		pending[res.Index] = res
		for {
			r, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			fold(r)
		}
	}
	// After a clean run the buffer is empty; a mid-stream abort can leave
	// a gap (a parsed net dropped at cancellation), so flush stragglers
	// in index order to keep even the aborted report deterministic.
	if len(pending) > 0 {
		rest := make([]int, 0, len(pending))
		for i := range pending {
			rest = append(rest, i)
		}
		sort.Ints(rest)
		for _, i := range rest {
			fold(pending[i])
		}
	}
	wgParse.Wait()

	runtime.ReadMemStats(&memStats)
	if memStats.HeapInuse > stats.PeakHeap {
		stats.PeakHeap = memStats.HeapInuse
	}
	stats.PeakRSS = readPeakRSS()
	stats.Wall = time.Since(t0)
	if secs := stats.Wall.Seconds(); secs > 0 {
		stats.NetsPerSec = float64(stats.Nets+stats.Failed) / secs
	}
	mPipeWall.Observe(int64(stats.Wall))
	if stats.PeakRSS > 0 {
		mPipePeakRSS.Set(int64(stats.PeakRSS))
	}

	var err error
	switch {
	case parseErr != nil:
		err = parseErr
	case ctx.Err() != nil:
		err = guard.Check(ctx)
	}
	return agg.Report(), stats, err
}

// AnalyzeNet is the per-net oracle: it builds net's RLC tree, sweeps it
// serially with core.AnalyzeTreeCtx and summarizes it with
// timing.SummarizeNet. RunPipeline runs every net through it, so a serial
// replay of the same stream through AnalyzeNet is the pipeline's slow
// twin.
func AnalyzeNet(ctx context.Context, net *spef.Net, units spef.Units) (timing.NetSummary, error) {
	tree, err := net.Tree(units)
	if err != nil {
		return timing.NetSummary{}, err
	}
	nodes, err := core.AnalyzeTreeCtx(ctx, tree)
	if err != nil {
		return timing.NetSummary{}, err
	}
	return timing.SummarizeNet(net.Name, nodes)
}

// analyzeOne runs one net through AnalyzeNet under ctx, recycling the net
// on every path (the net must not be touched after this call). The
// worker's wide event, carried by ctx, is reset for this net, stamped by
// the net's "analyze" stage (the layers nested in it stay out of the
// event), and recorded in the flight recorder with the stage's duration
// as its total.
func analyzeOne(ctx context.Context, job pipeJob) NetResult {
	res := NetResult{Index: job.index, Net: job.net.Name}
	ev := obs.EventFrom(ctx)
	// job.net is recycled below; res captured the name.
	*ev = obs.WideEvent{Route: "pipeline.net", Net: res.Net}
	st := obs.StartStage(ctx, "analyze", mPipeAnalyzeLatency)
	err := guard.Run(ctx, func(ctx context.Context) error {
		var err error
		res.Summary, err = AnalyzeNet(ctx, job.net, job.units)
		return err
	})
	spef.RecycleNet(job.net)
	res.Err = err
	ev.TotalNS = int64(st.End())
	ev.SetClass(guard.ClassName(err))
	ev.SetErr(err)
	obs.DefaultFlight().Record(ev, nil)
	return res
}

// readPeakRSS returns the process's peak resident set size in bytes from
// /proc/self/status (VmHWM), or 0 where that is unavailable. A kernel
// high-water mark is the honest "did memory stay flat" witness: heap
// samples miss allocator and stack overhead.
func readPeakRSS() uint64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
