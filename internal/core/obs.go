package core

import "eedtree/internal/obs"

// Registry metrics for the analysis kernels. The serial sweep and the
// engine's sharded sweep both time their passes through ElmoreSums and
// StartSweep/EndSweep, so "sums pass vs per-node kernel" timing covers
// both execution paths.
var (
	mSumsLatency = obs.Default().Histogram("eed_core_sums_latency_ns",
		"Wall time of the two O(n) Elmore summation passes, nanoseconds.",
		obs.DefaultLatencyBuckets)
	mKernelLatency = obs.Default().Histogram("eed_core_kernel_latency_ns",
		"Wall time of the per-node closed-form kernel loop over one tree, nanoseconds.",
		obs.DefaultLatencyBuckets)

	mDegradedZeroL = obs.Default().Counter(
		obs.Label("eed_core_degraded_total", "reason", DegradedZeroInductance),
		"Nodes degraded to the RC (Elmore) model, by reason.")
	mDegradedNonPhysical = obs.Default().Counter(
		obs.Label("eed_core_degraded_total", "reason", DegradedNonPhysical),
		"Nodes degraded to the RC (Elmore) model, by reason.")
	mDegradedDegenerate = obs.Default().Counter(
		obs.Label("eed_core_degraded_total", "reason", DegradedDegenerate),
		"Nodes degraded to the RC (Elmore) model, by reason.")
)

// countDegraded tallies the degraded nodes of one completed sweep by
// class without touching the registry.
func countDegraded(out []NodeAnalysis) (zeroL, nonPhys, degen int) {
	for i := range out {
		switch out[i].DegradedClass {
		case DegradedZeroInductance:
			zeroL++
		case DegradedNonPhysical:
			nonPhys++
		case DegradedDegenerate:
			degen++
		}
	}
	return
}

// recordDegraded bumps the degraded-to-RC counters for one completed
// sweep. EndSweep calls it once per analysis, so the per-node tallying
// stays out of the hot kernel.
func recordDegraded(out []NodeAnalysis) {
	zeroL, nonPhys, degen := countDegraded(out)
	if zeroL > 0 {
		mDegradedZeroL.Add(uint64(zeroL))
	}
	if nonPhys > 0 {
		mDegradedNonPhysical.Add(uint64(nonPhys))
	}
	if degen > 0 {
		mDegradedDegenerate.Add(uint64(degen))
	}
}
