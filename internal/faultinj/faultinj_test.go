package faultinj

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// arm activates a parsed spec for the duration of the test. Tests in this
// package share the process-global plan, so none of them may run parallel.
func arm(t *testing.T, spec string) *Plan {
	t.Helper()
	p, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	Activate(p)
	t.Cleanup(Deactivate)
	return p
}

func TestDisabledNeverFires(t *testing.T) {
	Deactivate()
	if On() {
		t.Fatal("On() with no plan armed")
	}
	for _, pt := range Points() {
		if Fire(pt) {
			t.Fatalf("%s fired while disarmed", pt)
		}
	}
	if d, ok := Stall(SrvStall); ok || d != 0 {
		t.Fatal("Stall fired while disarmed")
	}
}

func TestAlwaysFireAndUnknownPointInert(t *testing.T) {
	arm(t, "srv.panic")
	for i := 0; i < 10; i++ {
		if !Fire(SrvPanic) {
			t.Fatalf("arrival %d: p=1 rule did not fire", i)
		}
	}
	// Points without a rule never fire under an armed plan.
	if Fire(RegEvict) {
		t.Fatal("unruled point fired")
	}
	if Fired(SrvPanic) != 10 {
		t.Fatalf("Fired = %d, want 10", Fired(SrvPanic))
	}
}

func TestProbabilityRoughlyHonored(t *testing.T) {
	arm(t, "seed=42;sess.numeric:p=0.3")
	fires := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if Fire(SessNumeric) {
			fires++
		}
	}
	if fires < n*25/100 || fires > n*35/100 {
		t.Fatalf("p=0.3 fired %d/%d times", fires, n)
	}
}

func TestDeterministicAcrossPlans(t *testing.T) {
	spec := "seed=7;srv.conn_drop:p=0.5"
	record := func() []bool {
		p, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		Activate(p)
		defer Deactivate()
		out := make([]bool, 200)
		for i := range out {
			out[i] = Fire(SrvConnDrop)
		}
		return out
	}
	a, b := record(), record()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between identical plans", i)
		}
	}
	// A different seed must give a different schedule.
	p2, _ := Parse("seed=8;srv.conn_drop:p=0.5")
	Activate(p2)
	defer Deactivate()
	same := true
	for i := range a {
		if Fire(SrvConnDrop) != a[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seed change did not change the schedule")
	}
}

func TestAfterSkipsArrivals(t *testing.T) {
	arm(t, "reg.evict:after=3")
	for i := 1; i <= 3; i++ {
		if Fire(RegEvict) {
			t.Fatalf("arrival %d fired inside the after window", i)
		}
	}
	if !Fire(RegEvict) {
		t.Fatal("arrival 4 should fire")
	}
}

func TestNBoundsTotalFires(t *testing.T) {
	arm(t, "sess.numeric:n=2")
	fires := 0
	for i := 0; i < 50; i++ {
		if Fire(SessNumeric) {
			fires++
		}
	}
	if fires != 2 || Fired(SessNumeric) != 2 {
		t.Fatalf("fires = %d, Fired = %d, want 2", fires, Fired(SessNumeric))
	}
}

func TestStallReturnsDuration(t *testing.T) {
	arm(t, "srv.stall:p=1,d=17ms")
	d, ok := Stall(SrvStall)
	if !ok || d != 17*time.Millisecond {
		t.Fatalf("Stall = (%v, %v), want (17ms, true)", d, ok)
	}
}

func TestStallDefaultsDuration(t *testing.T) {
	arm(t, "srv.stall")
	if d, ok := Stall(SrvStall); !ok || d != DefaultStall {
		t.Fatalf("Stall = (%v, %v), want (%v, true)", d, ok, DefaultStall)
	}
}

func TestConcurrentFireIsSafe(t *testing.T) {
	p := arm(t, "seed=3;sess.numeric:p=0.5,n=5000")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				Fire(SessNumeric)
			}
		}()
	}
	wg.Wait()
	st := p.Stats()[0]
	if st.Calls != 40000 {
		t.Fatalf("calls = %d, want 40000", st.Calls)
	}
	if st.Fired > 5000 {
		t.Fatalf("fired %d > n=5000", st.Fired)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"", "   ", ";;",
		"nope.point", "srv.stall:p=2", "srv.stall:p=-0.1", "srv.stall:p=x",
		"srv.stall:d=-5ms", "srv.stall:d=zz", "srv.stall:q=1", "srv.stall:p",
		"seed=abc", "srv.panic;srv.panic", "seed=1", // seed alone names no point
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestStringRoundTrips(t *testing.T) {
	spec := "seed=9;srv.stall:p=0.25,d=20ms;srv.panic:p=0.02,n=5,after=10;reg.evict"
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	p2, err := Parse(s)
	if err != nil {
		t.Fatalf("canonical form %q does not re-parse: %v", s, err)
	}
	if got := p2.String(); got != s {
		t.Fatalf("round trip drifted:\n first %s\nsecond %s", s, got)
	}
	rules := p2.Rules()
	if len(rules) != 3 || rules[0].D != 20*time.Millisecond || rules[1].N != 5 || rules[1].After != 10 || rules[2].P != 1 {
		t.Fatalf("rules after round trip = %+v", rules)
	}
	if !strings.Contains(s, "seed=9") {
		t.Fatalf("canonical form %q lost the seed", s)
	}
}
