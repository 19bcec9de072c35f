package engine

import (
	"context"
	"errors"
	"testing"

	"eedtree/internal/faultinj"
	"eedtree/internal/guard"
	"eedtree/internal/rlctree"
)

// armFaults activates a plan for the test's duration. The plan is
// process-global, so fault tests must not run in parallel.
func armFaults(t *testing.T, spec string) {
	t.Helper()
	p, err := faultinj.Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	faultinj.Activate(p)
	t.Cleanup(faultinj.Deactivate)
}

func faultTree(t *testing.T, n int) *rlctree.Tree {
	t.Helper()
	tr, err := rlctree.Line("f", n, rlctree.SectionValues{R: 25, L: 1e-9, C: 50e-15})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRegistryEvictStormFlushesAllNets(t *testing.T) {
	r := NewRegistry(New(Options{Workers: 1}), 8)
	var fps []rlctree.Fingerprint
	for i := 0; i < 3; i++ {
		res, err := r.Put(faultTree(t, 3+i))
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, res.Fingerprint())
	}
	armFaults(t, "reg.evict:p=1,n=1")
	if _, ok := r.Lookup(fps[0]); ok {
		t.Fatal("lookup survived the eviction storm")
	}
	st := r.Stats()
	if st.Resident != 0 || st.Evictions < 3 {
		t.Fatalf("after storm: %+v, want 0 resident and >=3 evictions", st)
	}
	// The storm was bounded to one fire: re-registered nets stay resident.
	res, err := r.Put(faultTree(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Lookup(res.Fingerprint()); !ok {
		t.Fatal("net evicted after the storm's n=1 budget was spent")
	}
}

func TestRegistryFlushDropsEverything(t *testing.T) {
	r := NewRegistry(New(Options{Workers: 1}), 8)
	for i := 0; i < 4; i++ {
		if _, err := r.Put(faultTree(t, 2+i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := r.Flush(); n != 4 {
		t.Fatalf("Flush = %d, want 4", n)
	}
	if st := r.Stats(); st.Resident != 0 {
		t.Fatalf("resident = %d after Flush", st.Resident)
	}
}

func TestSessionNumericFaultIsHonest422Class(t *testing.T) {
	tr := faultTree(t, 4)
	sess, err := NewSession(tr)
	if err != nil {
		t.Fatal(err)
	}
	sink := tr.Sections()[3]
	armFaults(t, "sess.numeric:p=1,n=2")
	if _, err := sess.DelayAt(sink); !errors.Is(err, guard.ErrNumeric) {
		t.Fatalf("DelayAt error = %v, want numeric class", err)
	}
	if _, err := sess.Analyze(context.Background()); !errors.Is(err, guard.ErrNumeric) {
		t.Fatalf("Analyze error = %v, want numeric class", err)
	}
	// Budget spent: the session recovers and serves real numbers again.
	d, err := sess.DelayAt(sink)
	if err != nil || d <= 0 {
		t.Fatalf("post-fault DelayAt = (%v, %v), want a positive delay", d, err)
	}
}
