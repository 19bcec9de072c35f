package main

import (
	"errors"
	"math"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"eedtree/internal/eedclient"
	"eedtree/internal/eedsrv"
	"eedtree/internal/faultinj"
)

func TestScheduleFractionsSumToOne(t *testing.T) {
	total := 0.0
	for _, ph := range schedule(1) {
		total += ph.Frac
		if ph.Spec != "" {
			if _, err := faultinj.Parse(ph.Spec); err != nil {
				t.Fatalf("phase %s spec %q: %v", ph.Name, ph.Spec, err)
			}
		}
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("phase fractions sum to %v, want 1", total)
	}
}

func TestSameResultIsBitExact(t *testing.T) {
	f := 1.25e-9
	g := 1.25e-9
	a := eedsrv.NodeResult{Node: "x", Delay50: f, Zeta: &f}
	b := eedsrv.NodeResult{Node: "x", Delay50: g, Zeta: &g}
	if !sameResult(a, b) {
		t.Fatal("identical results reported unequal")
	}
	h := math.Nextafter(g, 1) // one ulp away
	for name, c := range map[string]eedsrv.NodeResult{
		"delay_ulp":  {Node: "x", Delay50: h, Zeta: &g},
		"zeta_ulp":   {Node: "x", Delay50: g, Zeta: &h},
		"zeta_nil":   {Node: "x", Delay50: g},
		"other_node": {Node: "y", Delay50: g, Zeta: &g},
		"degraded":   {Node: "x", Delay50: g, Zeta: &g, Degraded: true},
	} {
		if sameResult(a, c) {
			t.Fatalf("%s: differing results reported equal", name)
		}
	}
}

// TestFailureClassBreakerRefusal: a breaker refusal inherits the status
// and class of the failure that opened the breaker, yet it is booked as
// breaker_open, apart from the real failures of that class.
func TestFailureClassBreakerRefusal(t *testing.T) {
	s := &soak{phaseErr: make([]atomic.Int64, 1), failedByClass: map[string]int{}}
	s.noteFailure(&eedclient.Error{Op: "delay", Status: 503, Class: "draining"})
	s.noteFailure(&eedclient.Error{Op: "delay", Status: 503, Class: "draining", Err: eedclient.ErrBreakerOpen})
	s.noteFailure(&eedclient.Error{Op: "delay", Err: eedclient.ErrBreakerOpen})
	s.noteFailure(&eedclient.Error{Op: "delay", Status: 502})
	s.noteFailure(errors.New("plain transport failure"))
	want := map[string]int{"draining": 1, "breaker_open": 2, "http_502": 1, "transport": 1}
	for cls, n := range want {
		if got := s.failedByClass[cls]; got != n {
			t.Errorf("class %s = %d, want %d (all: %v)", cls, got, n, s.failedByClass)
		}
	}
	if len(s.failedByClass) != len(want) {
		t.Errorf("classes = %v, want %v", s.failedByClass, want)
	}
	if s.failed.Load() != 5 || s.phaseErr[0].Load() != 5 {
		t.Errorf("failed = %d, phase errors = %d, want 5 and 5", s.failed.Load(), s.phaseErr[0].Load())
	}
}

// TestShortSoakInProcess runs the full chaos schedule — every fault
// family plus a listener-bounce restart — compressed into ~2.5s against
// an in-process server, and requires every gate to pass.
func TestShortSoakInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak takes ~3s")
	}
	t.Cleanup(faultinj.Deactivate)
	report, err := run(config{
		netFile:       filepath.Join("..", "..", "examples", "nets", "line64.tree"),
		dur:           2500 * time.Millisecond,
		conc:          4,
		seed:          7,
		budgetPct:     5, // short runs amplify per-op noise; CI soaks use 1
		p50Gate:       10 * time.Millisecond,
		recoverWithin: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Mismatches != 0 {
		t.Fatalf("bit-incorrect payloads: %d (first: %s)", report.Mismatches, report.MismatchSample)
	}
	if len(report.GateFailures) > 0 {
		t.Fatalf("gates failed: %v\n%s", report.GateFailures, renderText(report))
	}
	if report.TotalOps == 0 || len(report.Phases) != 7 {
		t.Fatalf("soak did not run: %+v", report)
	}
	// The fault phases actually exercised the client's resilience.
	if report.ClientRetries == 0 && report.Recovered == 0 {
		t.Fatalf("no retries and no recoveries — faults never bit:\n%s", renderText(report))
	}
	if txt := renderText(report); len(txt) == 0 {
		t.Fatal("empty text report")
	}
}
