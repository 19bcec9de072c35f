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
// Every edit made through the session — SetR/SetL/SetC, EditAndAnalyze,
// AttachLeaf/AttachSubtree/Detach/SplitSection — runs the tree op and
// then its twin on the incremental state, so the state never lags the
// tree: O(depth + |subtree|) per structural edit, which keeps topology
// optimization loops incremental. The tree may also be edited directly,
// around the session; the session then finds at its next query that the
// tree's generation moved without it and rebuilds its state from the
// tree, one O(n) resync counted in eed_incr_resyncs_total (and in
// eed_incr_structural_resyncs_total when the topology changed).
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
	gen  uint64              // tree generation st reflects
	full []core.NodeAnalysis // whole-tree result of generation gen; nil when none is held
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
	return &Session{eng: e, tree: t, st: st, gen: t.Gen()}, nil
}

// Tree returns the tree the session analyzes. Mutating it directly is
// allowed, at the price of one counted state rebuild at the next query;
// the session's own edit methods fold each edit in place.
func (s *Session) Tree() *rlctree.Tree { return s.tree }

// Stats returns the incremental kernel's work counters.
func (s *Session) Stats() incr.Stats { return s.st.Stats() }

// catchUp rebuilds the incremental state from the tree when the tree was
// edited around the session (its generation moved without the session),
// dropping the held whole-tree result. Every rebuild counts in
// eed_incr_resyncs_total, and one whose missed edits include a
// structural change also counts in eed_incr_structural_resyncs_total
// (rlctree.Tree.StructuralSince).
func (s *Session) catchUp() error {
	if s.gen == s.tree.Gen() {
		return nil
	}
	s.full = nil
	st, err := incr.New(s.tree)
	if err != nil {
		return err
	}
	structural := s.tree.StructuralSince(s.gen)
	s.st = st
	s.gen = s.tree.Gen()
	mIncrResyncs.Inc()
	if structural {
		mIncrStructResyncs.Inc()
	}
	return nil
}

// inStep reports whether the incremental state reflects the tree as it
// stands, so that the next tree op can be mirrored into it.
func (s *Session) inStep() bool { return s.gen == s.tree.Gen() }

// folded finishes an edit whose tree op has succeeded and whose state op
// returned stateErr. When the state op folded and the tree op moved the
// generation, the session takes the new generation, drops its held
// result and reports true. A state op that failed (it cannot, for an op
// the tree accepted) leaves the session behind the tree, so the next
// query rebuilds the state and counts a resync.
func (s *Session) folded(stateErr error) bool {
	if stateErr != nil || s.gen == s.tree.Gen() {
		return false
	}
	s.gen = s.tree.Gen()
	s.full = nil
	return true
}

func (s *Session) checkSection(sec *rlctree.Section) error {
	if sec == nil || sec.Tree() != s.tree {
		return guard.Newf(guard.ErrTopology, "engine", "section does not belong to the session's tree")
	}
	return nil
}

// SetR edits the series resistance of sec through the session: the tree
// first, then the incremental state — O(subtree) while the sums are
// fresh, deferred to the next query after a capacitance edit.
func (s *Session) SetR(sec *rlctree.Section, v float64) error {
	return s.setElem(sec, rlctree.ElemR, v)
}

// SetL edits the series inductance of sec; same contract as SetR.
func (s *Session) SetL(sec *rlctree.Section, v float64) error {
	return s.setElem(sec, rlctree.ElemL, v)
}

// SetC edits the node capacitance of sec through the session; the state
// refolds Ctot along the section's path in O(depth).
func (s *Session) SetC(sec *rlctree.Section, v float64) error {
	return s.setElem(sec, rlctree.ElemC, v)
}

// setElem makes one element edit on the tree and mirrors it into the
// state. A refused or no-op edit changes neither; an edit made while the
// session is behind the tree is left to the next query's resync.
func (s *Session) setElem(sec *rlctree.Section, elem rlctree.Elem, v float64) error {
	if err := s.checkSection(sec); err != nil {
		return err
	}
	var setTree func(float64) error
	var setState func(int, float64) error
	switch elem {
	case rlctree.ElemR:
		setTree, setState = sec.SetR, s.st.SetR
	case rlctree.ElemL:
		setTree, setState = sec.SetL, s.st.SetL
	case rlctree.ElemC:
		setTree, setState = sec.SetC, s.st.SetC
	default:
		return guard.Newf(guard.ErrInternal, "engine", "unknown edit element %d", elem)
	}
	inStep := s.inStep()
	if err := setTree(v); err != nil || !inStep {
		return err
	}
	if s.folded(setState(sec.Index(), v)) {
		mIncrEdits.Inc()
	}
	return nil
}

// foldStructural finishes a structural edit made while the session was
// in step: stateErr is the result of the state op that mirrored the tree
// op. When it folded, the edit counts in counter and lat, the edit's
// end-to-end timing, ends.
func (s *Session) foldStructural(lat obs.Stage, counter *obs.Counter, stateErr error) {
	if s.folded(stateErr) {
		counter.Inc()
		lat.End()
	}
}

// AttachLeaf appends a new leaf section beneath parent (nil = the input
// node) through the session; the attach is folded into the incremental
// state in O(depth).
func (s *Session) AttachLeaf(name string, parent *rlctree.Section, r, l, c float64) (*rlctree.Section, error) {
	if parent != nil {
		if err := s.checkSection(parent); err != nil {
			return nil, err
		}
	}
	lat := obs.Time(mIncrStructLatency)
	inStep := s.inStep()
	sec, err := s.tree.AttachLeaf(name, parent, r, l, c)
	if err != nil {
		return nil, err
	}
	if inStep {
		s.foldStructural(lat, mIncrStructAttaches, s.st.Attach([]*rlctree.Section{sec}))
	}
	return sec, nil
}

// AttachSubtree moves every section of src into the session's tree beneath
// parent (rlctree.Tree.AttachSubtree) and folds the attach into the
// incremental state in O(depth + |subtree|). src is consumed.
func (s *Session) AttachSubtree(parent *rlctree.Section, src *rlctree.Tree) ([]*rlctree.Section, error) {
	if parent != nil {
		if err := s.checkSection(parent); err != nil {
			return nil, err
		}
	}
	if src == s.tree {
		return nil, guard.Newf(guard.ErrTopology, "engine", "cannot attach the session's own tree into itself")
	}
	lat := obs.Time(mIncrStructLatency)
	inStep := s.inStep()
	moved, err := s.tree.AttachSubtree(parent, src)
	if err != nil {
		return nil, err
	}
	if inStep {
		s.foldStructural(lat, mIncrStructAttaches, s.st.Attach(moved))
	}
	return moved, nil
}

// Detach removes the subtree rooted at sec and returns it as an
// independent tree (rlctree.Tree.Detach), un-folding its capacitance from
// the incremental state symmetrically to an attach. Detaching a subtree
// that occupies a contiguous index suffix — the invariable case when
// undoing a recent attach — costs O(depth + |subtree|). Detaching the
// tree's only root would leave the session nothing to analyze, and is
// refused before anything moves.
func (s *Session) Detach(sec *rlctree.Section) (*rlctree.Tree, error) {
	if err := s.checkSection(sec); err != nil {
		return nil, err
	}
	if sec.Parent() == nil && len(s.tree.Roots()) == 1 {
		return nil, guard.Newf(guard.ErrTopology, "engine",
			"detaching %q, the tree's only root, would empty the session's tree", sec.Name())
	}
	lat := obs.Time(mIncrStructLatency)
	inStep, root := s.inStep(), sec.Index()
	sub, err := s.tree.Detach(sec)
	if err != nil {
		return nil, err
	}
	if inStep {
		s.foldStructural(lat, mIncrStructDetaches, s.st.Detach(root))
	}
	return sub, nil
}

// SplitSection splits sec into k equal subsections in place
// (rlctree.Tree.SplitSection) and folds the split into the incremental
// state in O(depth + k).
func (s *Session) SplitSection(sec *rlctree.Section, k int) ([]*rlctree.Section, error) {
	if err := s.checkSection(sec); err != nil {
		return nil, err
	}
	lat := obs.Time(mIncrStructLatency)
	inStep, x := s.inStep(), sec.Index()
	subs, err := s.tree.SplitSection(sec, k)
	if err != nil {
		return nil, err
	}
	if inStep {
		s.foldStructural(lat, mIncrStructSplits, s.st.Split(x, k))
	}
	return subs, nil
}

// SumsAt returns the node's two path summations S_R(i), S_L(i) and its
// downstream capacitance, incrementally maintained — the raw quantities of
// the paper's Appendix at O(depth) cost under edits.
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
	lat := obs.Time(mIncrQueryLatency)
	if err := s.catchUp(); err != nil {
		return 0, 0, 0, err
	}
	sr, sl, ctot, err = s.st.SumsAt(sink.Index())
	if err == nil {
		mIncrQueries.Inc()
		lat.End()
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
// in order, each to the tree and the incremental state; on an invalid
// edit the earlier edits of the batch remain applied and the error is
// returned.
func (s *Session) EditAndAnalyze(ctx context.Context, edits []SectionEdit, sink *rlctree.Section) (core.NodeAnalysis, error) {
	if err := guard.Check(ctx); err != nil {
		return core.NodeAnalysis{}, err
	}
	for _, e := range edits {
		if err := s.checkSection(e.Section); err != nil {
			return core.NodeAnalysis{}, err
		}
		if err := s.setElem(e.Section, e.Elem, e.Value); err != nil {
			return core.NodeAnalysis{}, err
		}
	}
	return s.AnalyzeAt(sink)
}

// Analyze returns the whole-tree characterization. The session first
// catches the incremental state up (so subsequent single-sink queries stay
// cheap, and so a moved generation drops the held result). While the
// session holds the result of the tree's current generation it returns a
// copy of it — an engine cache hit; otherwise it sweeps with its engine's
// AnalyzeTree — a miss — and holds the new result. Sweep latency lands in
// eed_incr_full_latency_ns; compare against eed_incr_query_latency_ns for
// the full-vs-incremental cost split.
func (s *Session) Analyze(ctx context.Context) ([]core.NodeAnalysis, error) {
	if faultinj.Fire(faultinj.SessNumeric) {
		return nil, guard.Newf(guard.ErrNumeric, "engine.faultinj",
			"injected numeric degradation (sess.numeric)")
	}
	if err := s.catchUp(); err != nil {
		return nil, err
	}
	if s.full != nil {
		s.eng.hits.Add(1)
		mCacheHits.Inc()
		return slices.Clone(s.full), nil
	}
	s.eng.misses.Add(1)
	mCacheMisses.Inc()
	lat := obs.Time(mIncrFullLatency)
	out, err := s.eng.AnalyzeTree(ctx, s.tree)
	if err != nil {
		return nil, err
	}
	lat.End()
	s.full = out
	return slices.Clone(out), nil
}
