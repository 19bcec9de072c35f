package main

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"eedtree/internal/eedclient"
	"eedtree/internal/faultinj"
	"eedtree/internal/obs"
)

func TestParseMix(t *testing.T) {
	mix, err := parseMix("delay=90,analyze=5,edit=5")
	if err != nil || mix["delay"] != 90 || mix["analyze"] != 5 || mix["edit"] != 5 {
		t.Fatalf("mix=%v err=%v", mix, err)
	}
	for _, bad := range []string{"", "delay", "delay=x", "delay=-1", "frobnicate=3", "delay=0,edit=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Fatalf("mix %q should be rejected", bad)
		}
	}
}

// TestPct pins the shared obs.Percentile helper to the semantics the
// harness's own pct() had before the dedupe: nearest-rank on a sorted
// slice, clamped, zero for empty input.
func TestPct(t *testing.T) {
	lat := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := obs.Percentile(lat, 50); got != 5 {
		t.Fatalf("p50 = %v, want 5", got)
	}
	if got := obs.Percentile(lat, 99); got != 10 {
		t.Fatalf("p99 = %v, want 10", got)
	}
	if got := obs.Percentile(lat[:1], 99); got != 1 {
		t.Fatalf("single-sample p99 = %v, want 1", got)
	}
	if got := obs.Percentile[time.Duration](nil, 50); got != 0 {
		t.Fatalf("empty p50 = %v, want 0", got)
	}
}

// TestShortRunInProcess drives the full harness — in-process server,
// registration, warmup, mixed load, report — for a fraction of a second
// and checks the report.
func TestShortRunInProcess(t *testing.T) {
	netFile := filepath.Join("..", "..", "examples", "nets", "line64.tree")
	mix := map[string]int{"delay": 8, "analyze": 1, "edit": 1, "batch": 1}
	report, err := run(netFile, "", 300*time.Millisecond, 4, mix, 0)
	if err != nil {
		t.Fatal(err)
	}
	if report.Sections != 64 || !report.InProcess {
		t.Fatalf("report header = %+v", report)
	}
	if report.TotalErrors != 0 {
		t.Fatalf("%d errors under clean load", report.TotalErrors)
	}
	if report.TotalRequests == 0 || report.Throughput <= 0 {
		t.Fatalf("no load recorded: %+v", report)
	}
	for _, op := range []string{"delay", "analyze", "edit", "batch"} {
		st, ok := report.Ops[op]
		if !ok || st.CountN == 0 {
			t.Fatalf("op %s missing from the report: %+v", op, report.Ops)
		}
		if st.P50us <= 0 || st.P99us < st.P50us || st.Maxus < st.P99us {
			t.Fatalf("op %s: implausible percentiles %+v", op, st)
		}
	}
	if txt := renderText(report); len(txt) == 0 {
		t.Fatal("empty text report")
	}
}

func TestRunRejectsMissingNet(t *testing.T) {
	if _, err := run(filepath.Join(t.TempDir(), "nope.tree"), "", time.Second, 1, map[string]int{"delay": 1}, 0); err == nil {
		t.Fatal("missing net file should error")
	}
}

// TestErrorClassBreakdown checks the per-guard-class error tally the
// report satellites expose: classes come from the typed client error.
func TestErrorClassBreakdown(t *testing.T) {
	wk, err := newWorker("http://127.0.0.1:0", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	wk.record("delay", t0, nil)
	wk.record("delay", t0, &eedclient.Error{Op: "delay", Status: 422, Class: "numeric"})
	wk.record("delay", t0, &eedclient.Error{Op: "delay", Status: 503, Class: "draining"})
	wk.record("delay", t0, &eedclient.Error{Op: "delay", Status: 502})
	wk.record("delay", t0, &eedclient.Error{Op: "delay", Err: eedclient.ErrBreakerOpen})
	wk.record("delay", t0, errors.New("plain transport failure"))
	if len(wk.lat["delay"]) != 1 || wk.errs["delay"] != 5 {
		t.Fatalf("lat=%d errs=%d", len(wk.lat["delay"]), wk.errs["delay"])
	}
	want := map[string]int{"numeric": 1, "draining": 1, "http_502": 1, "breaker_open": 1, "transport": 1}
	for cls, n := range want {
		if wk.byClass["delay"][cls] != n {
			t.Fatalf("class %s = %d, want %d (all: %v)", cls, wk.byClass["delay"][cls], n, wk.byClass["delay"])
		}
	}
}

// TestShortRunWithRetriesUnderFaults drives the harness in retry mode
// against an in-process server with a low-rate injected queue timeout:
// the client's Retry-After-aware loop should absorb every injected
// rejection, leaving a clean report with a nonzero retry count.
func TestShortRunWithRetriesUnderFaults(t *testing.T) {
	plan, err := faultinj.Parse("seed=3;srv.queue_timeout:p=0.05")
	if err != nil {
		t.Fatal(err)
	}
	faultinj.Activate(plan)
	t.Cleanup(faultinj.Deactivate)
	netFile := filepath.Join("..", "..", "examples", "nets", "line64.tree")
	mix := map[string]int{"delay": 8, "edit": 2}
	report, err := run(netFile, "", 300*time.Millisecond, 4, mix, 3)
	if err != nil {
		t.Fatal(err)
	}
	if faultinj.Fired(faultinj.SrvQueueTimeout) == 0 {
		t.Skip("fault never fired in this short run")
	}
	if report.TotalRetries == 0 {
		t.Fatal("faults fired but the client never retried")
	}
	if report.TotalErrors != 0 {
		t.Fatalf("retry loop leaked %d errors: %+v", report.TotalErrors, report.Ops)
	}
}
