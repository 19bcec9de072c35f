package engine

import (
	"cmp"
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
// Edits may go through the session (SetR/SetL/SetC, EditAndAnalyze,
// AttachLeaf/AttachSubtree/Detach/SplitSection) or directly through the
// tree's own edit API; before every query the session catches up by
// replaying the tree's typed journal since its last synchronized
// generation. Structural changes replay in place like element edits —
// O(depth + |subtree|) per record — so topology optimization loops stay
// incremental; only a trimmed journal (or a consumed tree) forces a full
// resynchronization, counted in eed_incr_resyncs_total with the
// structural-cause split in eed_incr_structural_resyncs_total.
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
// shared state (the incremental summations, the edit journal) on what
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

// Tree returns the tree the session analyzes. Mutating it through the
// edit API is allowed (the session catches up on the next query);
// structural changes force a full state rebuild.
func (s *Session) Tree() *rlctree.Tree { return s.tree }

// Stats returns the incremental kernel's work counters.
func (s *Session) Stats() incr.Stats { return s.st.Stats() }

// catchUp synchronizes the incremental state with the tree by replaying
// the typed journal — element edits and structural records alike — since
// the session's generation, falling back to a full rebuild only when the
// history is not replayable (trimmed journal, consumed tree, or a record
// stream that no longer matches the state). The resync cause is recorded
// honestly: every rebuild counts in eed_incr_resyncs_total, and those
// caused by an unreplayable structural change additionally count in
// eed_incr_structural_resyncs_total (rlctree.Tree.StructuralSince). Any
// move of the generation drops the held whole-tree result.
func (s *Session) catchUp() error {
	if s.gen == s.tree.Gen() {
		return nil
	}
	s.full = nil
	recs, status := s.tree.RecordsSince(s.gen)
	if status == rlctree.JournalOK {
		var edits, attaches, detaches, splits uint64
		replayable := true
		for _, rec := range recs {
			if err := s.st.ApplyRecord(rec); err != nil {
				// Journal records were produced by the tree's own mutation
				// API, so this is unreachable in practice; resync
				// defensively.
				replayable = false
				break
			}
			switch rec.Kind {
			case rlctree.RecordValue:
				edits++
			case rlctree.RecordAttach:
				attaches++
			case rlctree.RecordDetach:
				detaches++
			case rlctree.RecordSplit:
				splits++
			}
		}
		if replayable {
			mIncrEdits.Add(edits)
			mIncrStructAttaches.Add(attaches)
			mIncrStructDetaches.Add(detaches)
			mIncrStructSplits.Add(splits)
			s.gen = s.tree.Gen()
			return nil
		}
	}
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

func (s *Session) checkSection(sec *rlctree.Section) error {
	if sec == nil || sec.Tree() != s.tree {
		return guard.Newf(guard.ErrTopology, "engine", "section does not belong to the session's tree")
	}
	return nil
}

// SetR edits the series resistance of sec through the session. The edit is
// journaled on the tree and folded into the incremental state on the next
// query.
func (s *Session) SetR(sec *rlctree.Section, v float64) error {
	if err := s.checkSection(sec); err != nil {
		return err
	}
	return sec.SetR(v)
}

// SetL edits the series inductance of sec; same contract as SetR.
func (s *Session) SetL(sec *rlctree.Section, v float64) error {
	if err := s.checkSection(sec); err != nil {
		return err
	}
	return sec.SetL(v)
}

// SetC edits the node capacitance of sec; same contract as SetR.
func (s *Session) SetC(sec *rlctree.Section, v float64) error {
	if err := s.checkSection(sec); err != nil {
		return err
	}
	return sec.SetC(v)
}

// foldStructural folds the structural edit the tree just journaled into
// the incremental state immediately (rather than on the next query) and
// ends lat, the edit's end-to-end timing. Folding eagerly keeps the
// structural wrappers' cost visible in eed_incr_structural_latency_ns
// and leaves the session ready for the O(depth) query that invariably
// follows in an optimizer loop.
func (s *Session) foldStructural(lat obs.Stage) error {
	err := s.catchUp()
	if err == nil {
		lat.End("")
	}
	return err
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
	sec, err := s.tree.AttachLeaf(name, parent, r, l, c)
	if err != nil {
		return nil, err
	}
	if err := s.foldStructural(lat); err != nil {
		return nil, err
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
	moved, err := s.tree.AttachSubtree(parent, src)
	if err != nil {
		return nil, err
	}
	if err := s.foldStructural(lat); err != nil {
		return nil, err
	}
	return moved, nil
}

// Detach removes the subtree rooted at sec and returns it as an
// independent tree (rlctree.Tree.Detach), un-folding its capacitance from
// the incremental state symmetrically to an attach. Detaching a subtree
// that occupies a contiguous index suffix — the invariable case when
// undoing a recent attach — costs O(depth + |subtree|).
func (s *Session) Detach(sec *rlctree.Section) (*rlctree.Tree, error) {
	if err := s.checkSection(sec); err != nil {
		return nil, err
	}
	lat := obs.Time(mIncrStructLatency)
	sub, err := s.tree.Detach(sec)
	if err != nil {
		return nil, err
	}
	if err := s.foldStructural(lat); err != nil {
		return nil, err
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
	subs, err := s.tree.SplitSection(sec, k)
	if err != nil {
		return nil, err
	}
	if err := s.foldStructural(lat); err != nil {
		return nil, err
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
		lat.End("")
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
// at sink — the one-call form of the edit→query cycle, traced as an
// "incr.edit_analyze" span. Edits are applied in order; on an invalid edit
// the earlier edits of the batch remain applied (they are journaled on the
// tree like any other edit) and the error is returned.
func (s *Session) EditAndAnalyze(ctx context.Context, edits []SectionEdit, sink *rlctree.Section) (na core.NodeAnalysis, err error) {
	st, _ := obs.StartStage(ctx, "incr.edit_analyze", nil)
	st.SetSections(len(edits))
	outcome := "" // the error's guard class unless an edit was refused
	defer func() { st.End(cmp.Or(outcome, guard.ClassName(err))) }()
	if err := guard.Check(ctx); err != nil {
		return core.NodeAnalysis{}, err
	}
	for _, e := range edits {
		if err := s.checkSection(e.Section); err != nil {
			return core.NodeAnalysis{}, err
		}
		var err error
		switch e.Elem {
		case rlctree.ElemR:
			err = e.Section.SetR(e.Value)
		case rlctree.ElemL:
			err = e.Section.SetL(e.Value)
		case rlctree.ElemC:
			err = e.Section.SetC(e.Value)
		default:
			err = guard.Newf(guard.ErrInternal, "engine", "unknown edit element %d", e.Elem)
		}
		if err != nil {
			outcome = "guard"
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
	lat.End("")
	s.full = out
	return slices.Clone(out), nil
}
