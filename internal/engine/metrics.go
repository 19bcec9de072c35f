package engine

import "eedtree/internal/obs"

// Registry metrics for the execution layer. The cache counters mirror
// Engine.CacheStats exactly (Session.Analyze bumps both at the same two
// sites), so an exposition dump and the engines' CacheStats always agree
// within one process.
var (
	mCacheHits = obs.Default().Counter("eed_engine_cache_hits_total",
		"Session whole-tree analyses answered from the session's held result.")
	mCacheMisses = obs.Default().Counter("eed_engine_cache_misses_total",
		"Session whole-tree analyses that swept the tree.")
	mSweepLatency = obs.Default().Histogram("eed_engine_sweep_latency_ns",
		"Wall time of one whole-tree analysis sweep through the engine, nanoseconds.",
		obs.DefaultLatencyBuckets)
	mSweepWorkers = obs.Default().Histogram("eed_engine_sweep_workers",
		"Worker-pool width used per analysis sweep.", obs.WorkerBuckets)
	mBatchQueued = obs.Default().Gauge("eed_engine_batch_queued",
		"Batch tasks submitted but not yet running.")
	mBatchInflight = obs.Default().Gauge("eed_engine_batch_inflight",
		"Batch tasks currently executing.")
	mBatchTasks = obs.Default().Counter("eed_engine_batch_tasks_total",
		"Batch tasks executed.")

	// Incremental-session metrics (session.go). A single-sink query is
	// counted, not timed: its O(depth) path walk costs less than the two
	// clock reads a histogram sample would take. A served query is timed
	// by its request's wide-event stage, and a session's whole-tree sweep
	// by eed_engine_sweep_latency_ns.
	mIncrSessions = obs.Default().Counter("eed_incr_sessions_total",
		"Incremental analysis sessions created.")
	mIncrEdits = obs.Default().Counter("eed_incr_edits_total",
		"Element edits folded into incremental session state.")
	mIncrQueries = obs.Default().Counter("eed_incr_queries_total",
		"Single-sink incremental sum queries served.")

	// Structural-incremental metrics (the session's structural edits).
	// The attach/detach/split counters measure how much topology churn
	// the kernel absorbed in place; the failures of that bet — a topology
	// change made on the tree around the session that forced an O(n)
	// rebuild — are counted by internal/incr, in
	// eed_incr_structural_resyncs_total.
	mIncrStructAttaches = obs.Default().Counter("eed_incr_structural_attaches_total",
		"Attaches (leaf and subtree) folded into incremental session state.")
	mIncrStructDetaches = obs.Default().Counter("eed_incr_structural_detaches_total",
		"Detaches folded into incremental session state.")
	mIncrStructSplits = obs.Default().Counter("eed_incr_structural_splits_total",
		"Splits folded into incremental session state.")
	mIncrStructLatency = obs.Default().Histogram("eed_incr_structural_latency_ns",
		"Latency of one structural edit applied through a session (tree surgery + incremental fold), nanoseconds.",
		obs.DefaultLatencyBuckets)

	// Session-registry metrics (registry.go) — the resident-net pool the
	// daemon serves from. Hits are memory-speed queries; misses pay a
	// parse + session build; evictions measure pressure on the capacity
	// bound.
	mRegistryNets = obs.Default().Gauge("eed_registry_nets",
		"Nets currently resident in the session registry.")
	mRegistryHits = obs.Default().Counter("eed_registry_hits_total",
		"Registry lookups served by a resident warm session.")
	mRegistryMisses = obs.Default().Counter("eed_registry_misses_total",
		"Registry lookups that found no resident net.")
	mRegistryEvictions = obs.Default().Counter("eed_registry_evictions_total",
		"Resident nets displaced by the capacity bound or a re-key collision.")

	// Streaming-pipeline metrics (pipeline.go). The two queue gauges plus
	// the in-flight gauge make backpressure visible: a saturated parse
	// queue means analysis is the bottleneck, a saturated result queue
	// means aggregation is; in-flight bounded by 2×depth+workers is the
	// flat-memory invariant in gauge form.
	mPipeNetsParsed = obs.Default().Counter("eed_pipe_nets_parsed_total",
		"Nets yielded by the streaming SPEF parser into the pipeline.")
	mPipeNetFailures = obs.Default().Counter("eed_pipe_net_failures_total",
		"Nets whose tree build or analysis failed (isolated, run continues).")
	mPipeParseQueue = obs.Default().Gauge("eed_pipe_parse_queue",
		"Parsed nets waiting for an analyze worker.")
	mPipeResultQueue = obs.Default().Gauge("eed_pipe_result_queue",
		"Analyzed nets waiting for the aggregator.")
	mPipeInflight = obs.Default().Gauge("eed_pipe_nets_inflight",
		"Nets parsed but not yet folded into the chip aggregate.")
	mPipeParseLatency = obs.Default().Histogram("eed_pipe_parse_latency_ns",
		"Wall time to stream-parse one *D_NET section, nanoseconds.",
		obs.DefaultLatencyBuckets)
	mPipeAnalyzeLatency = obs.Default().Histogram("eed_pipe_analyze_latency_ns",
		"Wall time of one net's tree build + closed-form analysis + summary, nanoseconds.",
		obs.DefaultLatencyBuckets)
	mPipeWall = obs.Default().Histogram("eed_pipe_wall_ns",
		"Whole-pipeline wall time per RunPipeline call, nanoseconds.",
		obs.DefaultLatencyBuckets)
	mPipePeakRSS = obs.Default().Gauge("eed_pipe_peak_rss_bytes",
		"Process peak RSS (VmHWM) sampled at the end of the last pipeline run.")
)
