package core

import (
	"context"
	"errors"
	"math"

	"eedtree/internal/guard"
	"eedtree/internal/obs"
	"eedtree/internal/rlctree"
)

// NodeAnalysis collects the equivalent-Elmore characterization of one tree
// node for a step input: the second-order model and the closed-form timing
// quantities of paper Sec. IV, alongside the classical Elmore (Wyatt) RC
// delay for comparison.
type NodeAnalysis struct {
	Section *rlctree.Section
	Model   SecondOrder

	// Step-input metrics (paper eqs. 33–42).
	Delay50      float64 // 50% propagation delay [s]
	RiseTime     float64 // 10–90% rise time [s]
	Overshoot    float64 // first overshoot as a fraction of the final value (0 if monotone)
	SettlingTime float64 // time to settle within ±10% of the final value [s]

	// Classical Elmore (Wyatt) baseline, which ignores inductance.
	ElmoreDelay50  float64
	ElmoreRiseTime float64

	// Degraded is set when Model is an RC (Wyatt) fallback rather than a
	// genuine second-order characterization; DegradedReason says why
	// (zero path inductance, or a non-physical summation that degraded
	// gracefully) and DegradedClass is the matching stable short label
	// (one of the Degraded* constants). See SecondOrder.Degraded.
	Degraded       bool
	DegradedReason string
	DegradedClass  string
}

// SettlingBand is the ±fraction of the final value used for the settling
// time in AnalyzeTree; the paper uses 0.1 (Sec. IV, [47]).
const SettlingBand = 0.1

// AnalyzeTree computes the equivalent Elmore characterization at every node
// of an RLC tree. Its cost is linear in the number of branches — the same
// property that made the classical Elmore delay practical for synthesis —
// because all per-node summations come from the two O(n) passes of the
// paper's Appendix.
func AnalyzeTree(t *rlctree.Tree) ([]NodeAnalysis, error) {
	return AnalyzeTreeCtx(context.Background(), t)
}

// analyzeCheckEvery is how many nodes AnalyzeTreeCtx processes between
// context checks; per-node work is a handful of closed-form evaluations,
// so this keeps cancellation latency far below a millisecond without
// paying a channel poll on every node.
const analyzeCheckEvery = 256

// AnalyzeTreeCtx is AnalyzeTree under a context: cancellation (or a
// deadline) is honored periodically along the node sweep, returning a
// guard.ErrCanceled-classed error. Per-node model failures carry the
// guard taxonomy with the offending node's name.
func AnalyzeTreeCtx(ctx context.Context, t *rlctree.Tree) ([]NodeAnalysis, error) {
	n := t.Len()
	if n == 0 {
		return nil, guard.Newf(guard.ErrTopology, "core", "empty tree")
	}
	if err := guard.Check(ctx); err != nil {
		return nil, err
	}
	sums := ElmoreSums(ctx, t)
	sweep := StartSweep(ctx)
	out := make([]NodeAnalysis, n)
	for i, s := range t.Sections() {
		if i%analyzeCheckEvery == 0 {
			if err := guard.Check(ctx); err != nil {
				EndSweep(&sweep, nil)
				return nil, err
			}
		}
		na, err := AnalyzeNodeSums(sums, s)
		if err != nil {
			EndSweep(&sweep, nil)
			return nil, err
		}
		out[i] = na
	}
	EndSweep(&sweep, out)
	return out, nil
}

// ElmoreSums runs the two O(n) summation passes of the paper's Appendix
// (rlctree.Tree.ElmoreSums) as the "sums" stage under ctx. Timing is per
// pass, never per node: the serial sweep and the engine's sharded sweep
// both call it once per tree.
func ElmoreSums(ctx context.Context, t *rlctree.Tree) rlctree.Sums {
	st := obs.StartStage(ctx, "sums", mSumsLatency)
	sums := t.ElmoreSums()
	st.End()
	return sums
}

// StartSweep opens the "sweep" stage of a per-node kernel loop. Close it
// with EndSweep.
func StartSweep(ctx context.Context) obs.Stage {
	return obs.StartStage(ctx, "sweep", mKernelLatency)
}

// EndSweep closes a sweep stage. out is the completed sweep's result, nil
// when the sweep failed; its degraded nodes are counted once per sweep.
func EndSweep(st *obs.Stage, out []NodeAnalysis) {
	recordDegraded(out)
	st.End()
}

// AnalyzeNodeSums computes the characterization for a single section from
// precomputed tree summations (see rlctree.Tree.ElmoreSums). This is the
// per-node kernel shared by the serial sweep of AnalyzeTreeCtx and the
// parallel sweep of internal/engine: given the same sums it is a pure
// constant-time function of one section, so sharding the node range across
// workers yields bit-identical results to the serial pass.
//
// Callers that evaluate many single nodes of an unchanged tree should
// compute the sums once and call this per node — that keeps the per-node
// cost independent of the tree size, the property that makes the model
// usable inside synthesis loops (paper Appendix).
func AnalyzeNodeSums(sums rlctree.Sums, s *rlctree.Section) (NodeAnalysis, error) {
	i := s.Index()
	if i >= len(sums.SR) || i >= len(sums.SL) {
		return NodeAnalysis{}, guard.Newf(guard.ErrTopology, "core",
			"sums cover %d sections but node %q has index %d (stale sums?)", len(sums.SR), s.Name(), i)
	}
	return AnalyzeNodeFromSums(sums.SR[i], sums.SL[i], s)
}

// AnalyzeNodeFromSums builds the characterization of one node directly
// from its two path summations sr = Σ C·R_ik and sl = Σ C·L_ik, without a
// whole-tree Sums value. This is the kernel the incremental session
// (internal/engine.Session) feeds with O(depth)-maintained summations from
// internal/incr; AnalyzeNodeSums is the same kernel indexed into a
// whole-tree sums slice.
func AnalyzeNodeFromSums(sr, sl float64, s *rlctree.Section) (NodeAnalysis, error) {
	m, err := FromSums(sr, sl)
	if err != nil {
		if ge := new(guard.Error); errors.As(err, &ge) {
			return NodeAnalysis{}, ge.WithNode(s.Name())
		}
		return NodeAnalysis{}, err
	}
	na := NodeAnalysis{
		Section:        s,
		Model:          m,
		Delay50:        m.Delay50(),
		RiseTime:       m.RiseTime(),
		Overshoot:      m.Overshoot(1),
		ElmoreDelay50:  m.ElmoreDelay50(),
		ElmoreRiseTime: m.ElmoreRiseTime(),
		Degraded:       m.Degraded(),
		DegradedReason: m.DegradedReason(),
		DegradedClass:  m.DegradedClass(),
	}
	if ts, err := m.SettlingTime(SettlingBand); err == nil {
		na.SettlingTime = ts
	} else {
		na.SettlingTime = math.NaN()
	}
	return na, nil
}

// AnalyzeNode computes the characterization for a single section. It runs
// the O(n) summation passes and then evaluates only the requested node —
// it does not build models for the rest of the tree, so looping over nodes
// costs O(n) per call for the sums alone. Callers iterating many nodes of
// an unchanged tree should precompute the sums once and use
// AnalyzeNodeSums (or analyze the whole tree with AnalyzeTree).
func AnalyzeNode(s *rlctree.Section) (NodeAnalysis, error) {
	return AnalyzeNodeSums(s.Tree().ElmoreSums(), s)
}
