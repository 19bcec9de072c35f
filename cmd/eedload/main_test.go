package main

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"eedtree/internal/eedclient"
	"eedtree/internal/eedsrv"
	"eedtree/internal/engine"
	"eedtree/internal/faultinj"
)

// TestMain turns the test binary into eedload when re-exec'd, so the
// usage rules are checked through the real flag parsing and exit codes.
func TestMain(m *testing.M) {
	if os.Getenv("EEDLOAD_E2E") == "1" {
		os.Exit(realMain())
	}
	os.Exit(m.Run())
}

var line64 = filepath.Join("..", "..", "examples", "nets", "line64.tree")

// steady is a short steady run against the in-process server.
func steady(mix map[string]int) config {
	return config{netFile: line64, dur: 300 * time.Millisecond, conc: 4, mix: mix, seed: 1,
		budgetPct: 1, recoverWithin: time.Second}
}

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

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-d", "1s"}, // no -net
		{"-net", line64, "-mix", "delay=0"},
		{"-net", line64, "-addr", "http://127.0.0.1:1", "-eedd", "eedd"},
		// A remote daemon cannot be restarted, and recovery needs a bound.
		{"-net", line64, "-chaos", "-addr", "http://127.0.0.1:1", "-assert-warm-p50", "5ms"},
		{"-net", line64, "-chaos"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "EEDLOAD_E2E=1")
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("args %v: err %v, want exit 2\n%s", args, err, out)
		}
	}
}

// TestShortRunInProcess drives the steady schedule (in-process server,
// registration, warmup, mixed load, oracle, report) for a fraction of a
// second and checks the report.
func TestShortRunInProcess(t *testing.T) {
	r, err := run(steady(map[string]int{"delay": 8, "analyze": 1, "edit": 1, "batch": 1}))
	if err != nil {
		t.Fatal(err)
	}
	if r.Sections != 64 || r.Mode != "in-process" || len(r.Phases) != 1 || r.Total == 0 {
		t.Fatalf("report = %+v", r)
	}
	if r.Failed != 0 || r.Recovered != 0 || r.Mismatches != 0 || len(r.Gates) != 0 {
		t.Fatalf("clean load did not pass cleanly:\n%s", r.render())
	}
	for _, op := range opNames {
		st := r.Ops[op]
		if st.OK == 0 || st.P50 <= 0 || st.P90 < st.P50 || st.P99 < st.P90 {
			t.Fatalf("op %s: implausible stats %+v", op, st)
		}
	}
	if r.WarmP50 != r.Ops["delay"].P50 || !strings.Contains(r.render(), "verdict: PASS") {
		t.Fatalf("report:\n%s", r.render())
	}
}

func TestRunRejectsMissingNet(t *testing.T) {
	cfg := steady(map[string]int{"delay": 1})
	cfg.netFile = filepath.Join(t.TempDir(), "nope.tree")
	if _, err := run(cfg); err == nil {
		t.Fatal("missing net file should error")
	}
}

// TestSteadyRunFailsABadServer: a server moves every served delay50 by
// one ulp and answers every 20th point query with a 500. The steady run
// reports the bit-incorrect payloads, books the 500s its heal recovered
// as healed, and fails on both: a steady run's budget counts a failure
// even when the heal recovers it.
func TestSteadyRunFailsABadServer(t *testing.T) {
	h := eedsrv.New(eedsrv.Options{Engine: engine.New(engine.Options{})}).Handler()
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/v1/delay" {
			h.ServeHTTP(w, req)
			return
		}
		if n.Add(1)%20 == 0 {
			http.Error(w, "injected", http.StatusInternalServerError)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var resp eedsrv.DelayResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
			t.Errorf("delay: status %d, err %v: %s", rec.Code, err, rec.Body)
			return
		}
		resp.Result.Delay50 = math.Nextafter(resp.Result.Delay50, math.Inf(1))
		json.NewEncoder(w).Encode(resp)
	}))
	defer ts.Close()
	cfg := steady(map[string]int{"delay": 1})
	cfg.addr = ts.URL
	r, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mismatches == 0 || r.HealedByClass["delay:http_500"] == 0 || len(r.Gates) != 2 ||
		!strings.Contains(r.render(), "healed by class: delay:http_500=") {
		t.Fatalf("want bit-incorrect payloads and healed 500s to fail the run:\n%s", r.render())
	}
	// The sample shows both differing delay50 values, and no address.
	d := regexp.MustCompile(`delay50:(\S+)`).FindAllStringSubmatch(r.MismatchSample, -1)
	if len(d) != 2 || d[0][1] == d[1][1] || strings.Contains(r.MismatchSample, "0x") {
		t.Fatalf("mismatch sample does not show the differing values: %s", r.MismatchSample)
	}
}

// TestErrorClassBreakdown: failures are classed by the class the server
// sent, else the status, else as transport. A breaker refusal inherits
// the status and class of the failure that opened the breaker, yet it is
// booked as breaker_open, apart from the real failures of that class.
func TestErrorClassBreakdown(t *testing.T) {
	for _, c := range []struct {
		err  error
		want string
	}{
		{&eedclient.Error{Op: "delay", Status: 422, Class: "numeric"}, "numeric"},
		{&eedclient.Error{Op: "delay", Status: 503, Class: "draining"}, "draining"},
		{&eedclient.Error{Op: "delay", Status: 503, Class: "draining", Err: eedclient.ErrBreakerOpen}, "breaker_open"},
		{&eedclient.Error{Op: "delay", Err: eedclient.ErrBreakerOpen}, "breaker_open"},
		{&eedclient.Error{Op: "delay", Status: 502}, "http_502"},
		{&eedclient.Error{Op: "delay", Err: errors.New("connection refused")}, "transport"},
		{errors.New("plain transport failure"), "transport"},
	} {
		if got := failureClass(c.err); got != c.want {
			t.Errorf("failureClass(%v) = %s, want %s", c.err, got, c.want)
		}
	}
}

// TestFailureClassBreakerRefusal: a breaker refusal inherits the status
// and class of the failure that opened the breaker, yet it is booked as
// breaker_open, apart from the real failures of that class, and every
// failure counts against its phase.
func TestFailureClassBreakerRefusal(t *testing.T) {
	w := &worker{failed: map[string]int{}, phaseFail: make([]int, 1)}
	w.noteFailure(0, "delay", &eedclient.Error{Op: "delay", Status: 503, Class: "draining"})
	w.noteFailure(0, "delay", &eedclient.Error{Op: "delay", Status: 503, Class: "draining", Err: eedclient.ErrBreakerOpen})
	w.noteFailure(0, "delay", &eedclient.Error{Op: "delay", Err: eedclient.ErrBreakerOpen})
	w.noteFailure(0, "delay", &eedclient.Error{Op: "delay", Status: 502})
	w.noteFailure(0, "delay", errors.New("plain transport failure"))
	want := map[string]int{"delay:draining": 1, "delay:breaker_open": 2, "delay:http_502": 1, "delay:transport": 1}
	for cls, n := range want {
		if got := w.failed[cls]; got != n {
			t.Errorf("class %s = %d, want %d (all: %v)", cls, got, n, w.failed)
		}
	}
	if len(w.failed) != len(want) {
		t.Errorf("classes = %v, want %v", w.failed, want)
	}
	if w.phaseFail[0] != 5 {
		t.Errorf("phase errors = %d, want 5", w.phaseFail[0])
	}
}

func TestScheduleFractionsSumToOne(t *testing.T) {
	for _, phases := range [][]phase{steadySchedule, chaosSchedule(1)} {
		total := 0.0
		for _, ph := range phases {
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
}

func TestSameResultIsBitExact(t *testing.T) {
	f, g := 1.25e-9, 1.25e-9
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

// TestShortSoakInProcess runs the chaos schedule (every fault family
// plus a listener-bounce restart) compressed into ~2.5s against an
// in-process server, and requires every gate to pass.
func TestShortSoakInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak takes ~3s")
	}
	r, err := run(config{
		netFile:       line64,
		chaos:         true,
		dur:           2500 * time.Millisecond,
		conc:          4,
		mix:           map[string]int{"delay": 58, "analyze": 15, "edit": 27},
		seed:          7,
		budgetPct:     5, // short runs amplify per-op noise; CI soaks use 1
		warmP50:       10 * time.Millisecond,
		recoverWithin: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Gates) > 0 {
		t.Fatalf("gates failed: %v\n%s", r.Gates, r.render())
	}
	if r.Total == 0 || len(r.Phases) != 7 {
		t.Fatalf("soak did not run:\n%s", r.render())
	}
	// The fault phases actually exercised the client's resilience.
	if r.Retries == 0 && r.Recovered == 0 {
		t.Fatalf("no retries and no recoveries, so the faults never bit:\n%s", r.render())
	}
}
