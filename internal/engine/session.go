package engine

import (
	"context"
	"errors"
	"slices"

	"eedtree/internal/core"
	"eedtree/internal/faultinj"
	"eedtree/internal/guard"
	"eedtree/internal/incr"
	"eedtree/internal/obs"
	"eedtree/internal/rlctree"
)

// Session is a mutable analysis session over one RLC tree: it keeps the
// paper's summations live across element edits (internal/incr) instead of
// recomputing them from zero, so repeated-evaluation workloads — the inner
// loop of a sizing or repeater-insertion optimizer — pay O(depth) per
// candidate rather than an O(n) rebuild-and-resweep.
//
// Every edit made through the session — SetR/SetL/SetC, Set,
// EditAndAnalyze, AttachLeaf/AttachSubtree/Detach/SplitSection — is one
// call on its incremental state, which runs the tree op once and repairs
// its derived arrays: O(depth + |subtree|) per structural edit, which
// keeps topology optimization loops incremental. The tree may also be
// edited directly, around the session; the state then finds at its next
// call that the tree's generation moved without it and rebuilds itself
// from the tree, one O(n) resync counted in eed_incr_resyncs_total (and
// in eed_incr_structural_resyncs_total when the topology changed).
//
// Query tiers, cheapest first:
//
//   - DelayAt / SumsAt / AnalyzeAt: single-sink, incremental — O(depth)
//     after a capacitance edit, O(1) otherwise.
//   - Analyze: whole-tree — a copy of the session's held result while the
//     tree's generation is unchanged, otherwise a full O(n) sweep through
//     the engine's AnalyzeTree, whose result the session then holds.
//
// Results are bit-identical to a from-scratch core analysis of the same
// tree after any edit sequence (the internal/incr contract).
//
// A Session is not safe for concurrent use; it is the per-goroutine
// companion of the process-wide Engine. Neither the session nor the tree
// it wraps may be touched from two goroutines at once — both mutate
// shared state (the incremental summations, the fingerprint cache) on what
// look like read paths. Callers that must share a session across
// goroutines serialize through a mutex that covers the session AND its
// tree; Registry gives that discipline a name (Resident.Do), and the
// race-mode suite (TestRegistryConcurrentSessions) enforces it.
type Session struct {
	eng  *Engine
	tree *rlctree.Tree
	st   *incr.State
	full []core.NodeAnalysis // whole-tree result of generation gen; nil when none is held
	gen  uint64              // tree generation full belongs to
}

// NewSession returns a standalone incremental session over t. Whole-tree
// Analyze calls sweep on GOMAXPROCS workers.
func NewSession(t *rlctree.Tree) (*Session, error) { return newSession(nil, t) }

// newSession returns a session whose whole-tree sweeps run on e (nil = a
// default engine of its own).
func newSession(e *Engine, t *rlctree.Tree) (*Session, error) {
	if t == nil {
		return nil, guard.Newf(guard.ErrTopology, "engine", "nil tree")
	}
	st, err := incr.New(t)
	if err != nil {
		return nil, err
	}
	if e == nil {
		e = New(Options{})
	}
	mIncrSessions.Inc()
	return &Session{eng: e, tree: t, st: st}, nil
}

// Tree returns the tree the session analyzes. Mutating it directly is
// allowed, at the price of one counted state rebuild at the next query;
// the session's own edit methods fold each edit in place.
func (s *Session) Tree() *rlctree.Tree { return s.tree }

// Stats returns the incremental kernel's work counters.
func (s *Session) Stats() incr.Stats { return s.st.Stats() }

// moved reports whether the tree's generation moved since gen. If it
// did, the held result belongs to an older generation and is dropped.
func (s *Session) moved(gen uint64) bool {
	if s.tree.Gen() == gen {
		return false
	}
	s.full = nil
	return true
}

func (s *Session) checkSection(sec *rlctree.Section) error {
	if sec == nil || sec.Tree() != s.tree {
		return guard.Newf(guard.ErrTopology, "engine", "section does not belong to the session's tree")
	}
	return nil
}

// SetR edits the series resistance of sec through the session's state:
// O(subtree) while the sums are fresh, deferred to the next query after a
// capacitance edit.
func (s *Session) SetR(sec *rlctree.Section, v float64) error {
	return s.Set(sec, rlctree.ElemR, v)
}

// SetL edits the series inductance of sec; same contract as SetR.
func (s *Session) SetL(sec *rlctree.Section, v float64) error {
	return s.Set(sec, rlctree.ElemL, v)
}

// SetC edits the node capacitance of sec through the session's state,
// which refolds Ctot along the section's path in O(depth).
func (s *Session) SetC(sec *rlctree.Section, v float64) error {
	return s.Set(sec, rlctree.ElemC, v)
}

// Set makes one element edit of sec through the session's state. A
// refused or no-op edit changes nothing; one that moves the tree counts
// in eed_incr_edits_total and drops the held result.
func (s *Session) Set(sec *rlctree.Section, elem rlctree.Elem, v float64) error {
	if err := s.checkSection(sec); err != nil {
		return err
	}
	var set func(int, float64) error
	switch elem {
	case rlctree.ElemR:
		set = s.st.SetR
	case rlctree.ElemL:
		set = s.st.SetL
	case rlctree.ElemC:
		set = s.st.SetC
	default:
		return guard.Newf(guard.ErrInternal, "engine", "unknown edit element %d", elem)
	}
	gen := s.tree.Gen()
	err := set(sec.Index(), v)
	if s.moved(gen) {
		mIncrEdits.Inc()
	}
	return err
}

// structural finishes a structural edit that started at generation gen:
// one that moved the tree counts in counter and ends lat, the edit's
// end-to-end timing.
func (s *Session) structural(lat obs.Stage, gen uint64, counter *obs.Counter) {
	if s.moved(gen) {
		counter.Inc()
		lat.End()
	}
}

// AttachLeaf appends a new leaf section beneath parent (nil = the input
// node) through the session's state, in O(depth).
func (s *Session) AttachLeaf(name string, parent *rlctree.Section, r, l, c float64) (*rlctree.Section, error) {
	if parent != nil {
		if err := s.checkSection(parent); err != nil {
			return nil, err
		}
	}
	lat, gen := obs.Time(mIncrStructLatency), s.tree.Gen()
	sec, err := s.st.AttachLeaf(name, parent, r, l, c)
	s.structural(lat, gen, mIncrStructAttaches)
	return sec, err
}

// AttachSubtree moves every section of src into the session's tree beneath
// parent (rlctree.Tree.AttachSubtree) through the session's state, in
// O(depth + |subtree|). src is consumed.
func (s *Session) AttachSubtree(parent *rlctree.Section, src *rlctree.Tree) ([]*rlctree.Section, error) {
	if parent != nil {
		if err := s.checkSection(parent); err != nil {
			return nil, err
		}
	}
	lat, gen := obs.Time(mIncrStructLatency), s.tree.Gen()
	moved, err := s.st.AttachSubtree(parent, src)
	s.structural(lat, gen, mIncrStructAttaches)
	return moved, err
}

// Detach removes the subtree rooted at sec and returns it as an
// independent tree (rlctree.Tree.Detach), un-folding its capacitance
// symmetrically to an attach. Detaching a subtree that occupies a
// contiguous index suffix — the invariable case when undoing a recent
// attach — costs O(depth + |subtree|). Detaching the tree's only root
// would leave the session nothing to analyze, and is refused before
// anything moves.
func (s *Session) Detach(sec *rlctree.Section) (*rlctree.Tree, error) {
	if err := s.checkSection(sec); err != nil {
		return nil, err
	}
	lat, gen := obs.Time(mIncrStructLatency), s.tree.Gen()
	sub, err := s.st.Detach(sec)
	s.structural(lat, gen, mIncrStructDetaches)
	return sub, err
}

// SplitSection splits sec into k equal subsections in place
// (rlctree.Tree.SplitSection) through the session's state.
func (s *Session) SplitSection(sec *rlctree.Section, k int) ([]*rlctree.Section, error) {
	if err := s.checkSection(sec); err != nil {
		return nil, err
	}
	lat, gen := obs.Time(mIncrStructLatency), s.tree.Gen()
	subs, err := s.st.SplitSection(sec, k)
	s.structural(lat, gen, mIncrStructSplits)
	return subs, err
}

// SumsAt returns the node's two path summations S_R(i), S_L(i) and its
// downstream capacitance, incrementally maintained — the raw quantities of
// the paper's Appendix at O(depth) cost under edits. A query is counted in
// eed_incr_queries_total and reads no clock: the path walk costs less than
// timing it would.
func (s *Session) SumsAt(sink *rlctree.Section) (sr, sl, ctot float64, err error) {
	if err := s.checkSection(sink); err != nil {
		return 0, 0, 0, err
	}
	// Fault injection: a degraded kernel answers with an honest numeric
	// error — never a wrong float (the chaos harness pins that contract).
	if faultinj.Fire(faultinj.SessNumeric) {
		return 0, 0, 0, guard.Newf(guard.ErrNumeric, "engine.faultinj",
			"injected numeric degradation (sess.numeric)")
	}
	sr, sl, ctot, err = s.st.SumsAt(sink.Index())
	if err == nil {
		mIncrQueries.Inc()
	}
	return sr, sl, ctot, err
}

// DelayAt returns the equivalent-Elmore 50% delay at sink, O(depth) under
// edits. This is the optimizer inner-loop query: edit a few elements, ask
// for one sink's delay, repeat.
func (s *Session) DelayAt(sink *rlctree.Section) (float64, error) {
	sr, sl, _, err := s.SumsAt(sink)
	if err != nil {
		return 0, err
	}
	m, err := core.FromSums(sr, sl)
	if err != nil {
		if ge := new(guard.Error); errors.As(err, &ge) {
			return 0, ge.WithNode(sink.Name())
		}
		return 0, err
	}
	return m.Delay50(), nil
}

// AnalyzeAt returns the full closed-form characterization of one sink from
// the incrementally maintained summations, without touching the rest of
// the tree.
func (s *Session) AnalyzeAt(sink *rlctree.Section) (core.NodeAnalysis, error) {
	sr, sl, _, err := s.SumsAt(sink)
	if err != nil {
		return core.NodeAnalysis{}, err
	}
	return core.AnalyzeNodeFromSums(sr, sl, sink)
}

// SectionEdit is one element edit addressed by section, the unit of
// EditAndAnalyze.
type SectionEdit struct {
	Section *rlctree.Section
	Elem    rlctree.Elem
	Value   float64
}

// EditAndAnalyze applies a batch of element edits and returns the analysis
// at sink — the one-call form of the edit→query cycle. Edits are applied
// in order, each through Set; on an invalid edit the earlier edits of
// the batch remain applied and the error is returned.
func (s *Session) EditAndAnalyze(ctx context.Context, edits []SectionEdit, sink *rlctree.Section) (core.NodeAnalysis, error) {
	if err := guard.Check(ctx); err != nil {
		return core.NodeAnalysis{}, err
	}
	for _, e := range edits {
		if err := s.Set(e.Section, e.Elem, e.Value); err != nil {
			return core.NodeAnalysis{}, err
		}
	}
	return s.AnalyzeAt(sink)
}

// Analyze returns the whole-tree characterization. While the session
// holds the result of the tree's current generation it returns a copy of
// it — an engine cache hit; otherwise it sweeps with its engine's
// AnalyzeTree — a miss — and holds the new result. AnalyzeTree times the
// sweep, in eed_engine_sweep_latency_ns.
func (s *Session) Analyze(ctx context.Context) ([]core.NodeAnalysis, error) {
	if faultinj.Fire(faultinj.SessNumeric) {
		return nil, guard.Newf(guard.ErrNumeric, "engine.faultinj",
			"injected numeric degradation (sess.numeric)")
	}
	if s.full != nil && s.gen == s.tree.Gen() {
		s.eng.hits.Add(1)
		mCacheHits.Inc()
		return slices.Clone(s.full), nil
	}
	s.full = nil // of an older generation, moved around the session
	s.eng.misses.Add(1)
	mCacheMisses.Inc()
	out, err := s.eng.AnalyzeTree(ctx, s.tree)
	if err != nil {
		return nil, err
	}
	s.full, s.gen = out, s.tree.Gen()
	return slices.Clone(out), nil
}
