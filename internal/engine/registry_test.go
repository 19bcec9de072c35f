package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"eedtree/internal/core"
	"eedtree/internal/guard"
	"eedtree/internal/rlctree"
)

func registryTree(t *testing.T, n int, rOffset float64) *rlctree.Tree {
	t.Helper()
	tree, err := rlctree.Line("w", n, rlctree.SectionValues{R: 10 + rOffset, L: 1e-9, C: 50e-15})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestRegistryPutLookupHit(t *testing.T) {
	reg := NewRegistry(New(Options{Workers: 1}), 4)
	tree := registryTree(t, 8, 0)
	res, err := reg.Put(tree)
	if err != nil {
		t.Fatal(err)
	}
	fp := res.Fingerprint()

	// Same content, different tree object: must return the same resident.
	res2, err := reg.Put(registryTree(t, 8, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res {
		t.Fatal("Put of identical content returned a different resident")
	}
	got, ok := reg.Lookup(fp)
	if !ok || got != res {
		t.Fatal("Lookup by fingerprint missed the resident net")
	}
	st := reg.Stats()
	if st.Resident != 1 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 resident, 2 hits, 1 miss", st)
	}
}

func TestRegistryServesBitIdenticalToCore(t *testing.T) {
	reg := NewRegistry(New(Options{Workers: 1}), 4)
	tree := registryTree(t, 16, 0)
	want, err := tree.Clone().ElmoreSums(), error(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := reg.Put(tree)
	if err != nil {
		t.Fatal(err)
	}
	err = res.Do(func(sess *Session, tr *rlctree.Tree) error {
		for i, sec := range tr.Sections() {
			sr, sl, _, err := sess.SumsAt(sec)
			if err != nil {
				return err
			}
			if math.Float64bits(sr) != math.Float64bits(want.SR[i]) ||
				math.Float64bits(sl) != math.Float64bits(want.SL[i]) {
				return fmt.Errorf("node %d: resident sums diverge from from-scratch", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	reg := NewRegistry(nil, 2)
	fps := make([]rlctree.Fingerprint, 3)
	for i := range fps {
		res, err := reg.Put(registryTree(t, 4, float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = res.Fingerprint()
	}
	if _, ok := reg.Lookup(fps[0]); ok {
		t.Fatal("oldest net should have been evicted")
	}
	for _, fp := range fps[1:] {
		if _, ok := reg.Lookup(fp); !ok {
			t.Fatal("recent net missing")
		}
	}
	st := reg.Stats()
	if st.Evictions != 1 || st.Resident != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 resident", st)
	}

	// Touch fps[1] (now LRU order [2,1] → after touch [1,2]), insert a new
	// net: fps[2] must fall out.
	if _, ok := reg.Lookup(fps[1]); !ok {
		t.Fatal("net 1 missing")
	}
	if _, err := reg.Put(registryTree(t, 4, 9)); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Lookup(fps[2]); ok {
		t.Fatal("LRU order not refreshed by Lookup")
	}
	if _, ok := reg.Lookup(fps[1]); !ok {
		t.Fatal("recently used net evicted")
	}
}

func TestRegistryRekeyAfterEdit(t *testing.T) {
	reg := NewRegistry(nil, 4)
	res, err := reg.Put(registryTree(t, 8, 0))
	if err != nil {
		t.Fatal(err)
	}
	oldFP := res.Fingerprint()
	var newFP rlctree.Fingerprint
	err = res.Do(func(sess *Session, tr *rlctree.Tree) error {
		if err := sess.SetR(tr.Sections()[3], 42); err != nil {
			return err
		}
		newFP = reg.Rekey(res)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if newFP == oldFP {
		t.Fatal("edit did not change the fingerprint key")
	}
	if _, ok := reg.Lookup(oldFP); ok {
		t.Fatal("stale key still resolves after Rekey")
	}
	got, ok := reg.Lookup(newFP)
	if !ok || got != res {
		t.Fatal("new key does not resolve to the edited resident")
	}
	if res.Fingerprint() != newFP {
		t.Fatal("resident fingerprint not updated")
	}
}

// TestRegistryRekeyAfterStructuralEdit is the structural analogue of the
// value-edit rekey test, in the /v1/edit-style flow the daemon uses:
// mutate the topology through the resident's serialized session (detach a
// tail, re-attach it elsewhere, split a section), Rekey, and the net must
// be re-addressed — the old fingerprint 404s, the new one resolves to the
// same resident, and the session still answers bit-identically to a
// from-scratch sweep. Run under -race this also pins that structural edits
// stay inside the per-net mutex; concurrent index traffic is exercised by
// a reader goroutine hammering Lookup/Stats during the surgery.
func TestRegistryRekeyAfterStructuralEdit(t *testing.T) {
	reg := NewRegistry(nil, 4)
	res, err := reg.Put(registryTree(t, 8, 0))
	if err != nil {
		t.Fatal(err)
	}
	oldFP := res.Fingerprint()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				reg.Lookup(res.Fingerprint())
				reg.Stats()
			}
		}
	}()

	var newFP rlctree.Fingerprint
	err = res.Do(func(sess *Session, tr *rlctree.Tree) error {
		// Detach the last three sections and graft them under the second
		// section, then split the root — a real topology change, not a
		// value perturbation.
		sub, err := sess.Detach(tr.Sections()[5])
		if err != nil {
			return err
		}
		if _, err := sess.AttachSubtree(tr.Sections()[1], sub); err != nil {
			return err
		}
		if _, err := sess.SplitSection(tr.Sections()[0], 2); err != nil {
			return err
		}
		newFP = reg.Rekey(res)
		return nil
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if newFP == oldFP {
		t.Fatal("structural edit did not change the fingerprint key")
	}
	if _, ok := reg.Lookup(oldFP); ok {
		t.Fatal("stale key still resolves after structural Rekey")
	}
	got, ok := reg.Lookup(newFP)
	if !ok || got != res {
		t.Fatal("new key does not resolve to the restructured resident")
	}
	// The resident session must have folded the surgery incrementally and
	// still agree with a from-scratch sweep of the mutated tree.
	err = res.Do(func(sess *Session, tr *rlctree.Tree) error {
		if st := sess.Stats(); st.Detaches == 0 || st.Attaches == 0 || st.Splits == 0 {
			return fmt.Errorf("structural ops were not folded in place: %+v", st)
		}
		sums := tr.ElmoreSums()
		for j, sec := range tr.Sections() {
			sr, sl, _, err := sess.SumsAt(sec)
			if err != nil {
				return err
			}
			if math.Float64bits(sr) != math.Float64bits(sums.SR[j]) ||
				math.Float64bits(sl) != math.Float64bits(sums.SL[j]) {
				return fmt.Errorf("node %d: resident state diverged after structural rekey", j)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRegistryRekeyCollisionDisplaces(t *testing.T) {
	reg := NewRegistry(nil, 4)
	// Net A at R=10, net B at R=11; edit B back to R=10 → B collides with
	// A's key and displaces it.
	a, err := reg.Put(registryTree(t, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.Put(registryTree(t, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	err = b.Do(func(sess *Session, tr *rlctree.Tree) error {
		for _, sec := range tr.Sections() {
			if err := sess.SetR(sec, 10); err != nil {
				return err
			}
		}
		reg.Rekey(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Fingerprint() != a.Fingerprint() {
		t.Fatal("edited net should share A's content fingerprint")
	}
	got, ok := reg.Lookup(b.Fingerprint())
	if !ok || got != b {
		t.Fatal("collision key should resolve to the re-keyed resident")
	}
	if st := reg.Stats(); st.Evictions != 1 || st.Resident != 1 {
		t.Fatalf("stats = %+v, want displaced resident counted as eviction", st)
	}
}

func TestRegistryPutEmptyTree(t *testing.T) {
	reg := NewRegistry(nil, 2)
	if _, err := reg.Put(rlctree.New()); !errors.Is(err, guard.ErrTopology) {
		t.Fatalf("empty tree: err = %v, want ErrTopology", err)
	}
	if _, err := reg.Put(nil); !errors.Is(err, guard.ErrTopology) {
		t.Fatalf("nil tree: err = %v, want ErrTopology", err)
	}
}

// TestRegistryConcurrentSessions is the race-mode proof of the session
// concurrency contract the daemon relies on: Sessions are not safe for
// concurrent use, the registry serializes access per net via Resident.Do,
// and distinct nets proceed independently. Many goroutines hammer a small
// set of resident nets with mixed query/edit/rekey/analyze traffic; run
// under -race this catches any access outside the per-net mutex, and the
// final state of every net must still answer bit-identically to a
// from-scratch analysis.
func TestRegistryConcurrentSessions(t *testing.T) {
	eng := New(Options{Workers: 2})
	reg := NewRegistry(eng, 8)
	const nets = 4
	residents := make([]*Resident, nets)
	for i := range residents {
		res, err := reg.Put(registryTree(t, 32, float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		residents[i] = res
	}
	ctx := context.Background()
	const workers = 16
	const iters = 60
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := residents[w%nets]
			for i := 0; i < iters; i++ {
				err := res.Do(func(sess *Session, tr *rlctree.Tree) error {
					sink := tr.Sections()[tr.Len()-1]
					switch i % 4 {
					case 0: // point query
						_, err := sess.DelayAt(sink)
						return err
					case 1: // edit + rekey
						sec := tr.Sections()[(w+i)%tr.Len()]
						if err := sess.SetC(sec, float64(1+(w+i)%7)*1e-14); err != nil {
							return err
						}
						reg.Rekey(res)
						return nil
					case 2: // whole-tree sweep through the shared engine
						_, err := sess.Analyze(ctx)
						return err
					default: // full characterization at one sink
						_, err := sess.AnalyzeAt(sink)
						return err
					}
				})
				if err != nil {
					errCh <- err
					return
				}
				// Registry index traffic concurrent with session use.
				reg.Lookup(res.Fingerprint())
				reg.Stats()
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// After the storm every resident must still be bit-identical to a
	// from-scratch sweep of its (edited) tree, point queries and whole-tree
	// analysis alike.
	for i, res := range residents {
		err := res.Do(func(sess *Session, tr *rlctree.Tree) error {
			sums := tr.ElmoreSums()
			for j, sec := range tr.Sections() {
				sr, sl, _, err := sess.SumsAt(sec)
				if err != nil {
					return err
				}
				if math.Float64bits(sr) != math.Float64bits(sums.SR[j]) ||
					math.Float64bits(sl) != math.Float64bits(sums.SL[j]) {
					return fmt.Errorf("net %d node %d: resident state diverged", i, j)
				}
			}
			got, err := sess.Analyze(ctx)
			if err != nil {
				return err
			}
			want, err := core.AnalyzeTreeCtx(ctx, tr)
			if err != nil {
				return err
			}
			sameAnalyses(t, got, want)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestBatchRejectsNegativeWorkers(t *testing.T) {
	called := false
	errs := Batch(context.Background(), 3, -1, func(context.Context, int) error {
		called = true
		return nil
	})
	if called {
		t.Fatal("fn must not run with a negative worker count")
	}
	if len(errs) != 3 {
		t.Fatalf("got %d errors, want one per task", len(errs))
	}
	for _, err := range errs {
		if !errors.Is(err, guard.ErrLimit) {
			t.Fatalf("err = %v, want guard.ErrLimit", err)
		}
	}
}
