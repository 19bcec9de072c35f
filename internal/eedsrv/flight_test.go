package eedsrv

import (
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"eedtree/internal/engine"
	"eedtree/internal/obs"
)

// newFlightServer builds a server wired to its own private flight
// recorder, so assertions about "exactly one event" cannot be disturbed
// by other tests sharing the process-wide default recorder.
func newFlightServer(t *testing.T, opts Options) (*Server, *obs.FlightRecorder) {
	t.Helper()
	fr := obs.NewFlightRecorder(64, 8, time.Hour) // slow threshold out of reach
	opts.Flight = fr
	return newTestServer(t, opts), fr
}

// TestEveryResponsePathEmitsOneWideEvent is the single-emission matrix:
// whichever exit the analysis spine takes — success, guard-mapped error,
// panic-recovered 500, drain 503, injected queue-timeout 504 — exactly
// one wide event reaches the flight recorder, carrying the final status.
func TestEveryResponsePathEmitsOneWideEvent(t *testing.T) {
	cases := []struct {
		name     string
		prep     func(t *testing.T, s *Server)
		body     any
		status   int
		class    string
		captured bool
	}{
		{
			name:   "success",
			body:   DelayRequest{Tree: balanced7, Node: "s7"},
			status: 200,
		},
		{
			name:     "guard mapped parse error",
			body:     `{"tree": "not a tree`,
			status:   400,
			class:    "parse",
			captured: true,
		},
		{
			name:     "panic recovered 500",
			prep:     func(t *testing.T, s *Server) { armFaults(t, "srv.panic:p=1,n=1") },
			body:     DelayRequest{Tree: balanced7, Node: "s7"},
			status:   500,
			class:    "internal",
			captured: true,
		},
		{
			name:     "drain 503",
			prep:     func(t *testing.T, s *Server) { s.Drain() },
			body:     DelayRequest{Tree: balanced7, Node: "s7"},
			status:   503,
			class:    "draining",
			captured: true,
		},
		{
			name:     "queue timeout 504",
			prep:     func(t *testing.T, s *Server) { armFaults(t, "srv.queue_timeout:p=1,n=1") },
			body:     DelayRequest{Tree: balanced7, Node: "s7"},
			status:   504,
			class:    "canceled",
			captured: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, fr := newFlightServer(t, Options{})
			if tc.prep != nil {
				tc.prep(t, s)
			}
			code, _ := do(t, s, "POST", "/v1/delay", tc.body)
			if code != tc.status {
				t.Fatalf("status = %d, want %d", code, tc.status)
			}
			events := fr.Snapshot(obs.Filter{})
			if len(events) != 1 {
				t.Fatalf("flight recorder holds %d events, want exactly 1: %+v", len(events), events)
			}
			ev := events[0]
			if ev.Status != tc.status {
				t.Errorf("event status = %d, want %d", ev.Status, tc.status)
			}
			if ev.Class != tc.class {
				t.Errorf("event class = %q, want %q", ev.Class, tc.class)
			}
			if ev.Route != "/v1/delay" {
				t.Errorf("event route = %q, want /v1/delay", ev.Route)
			}
			if ev.RequestID == "" {
				t.Error("event has no request ID")
			}
			if ev.Captured != tc.captured {
				t.Errorf("event captured = %v, want %v", ev.Captured, tc.captured)
			}
			if caps := fr.Captures(); tc.captured && (len(caps) != 1 || caps[0].Seq != ev.Seq) {
				t.Errorf("capture buffer holds %+v, want the request's one event", caps)
			} else if !tc.captured && len(caps) != 0 {
				t.Errorf("capture buffer holds %d entries, want 0", len(caps))
			}
			if ev.TotalNS < 0 {
				t.Errorf("event total %d ns is negative", ev.TotalNS)
			}
		})
	}
}

// TestSuccessEventAnnotations pins what a healthy event of each route
// carries: exactly its top-level stages, in order — never a nested layer
// (sums, sweep) — summing to no more than the event's total, and for
// routes that resolve a net the fingerprint and registry outcome.
func TestSuccessEventAnnotations(t *testing.T) {
	edit := EditRequest{Tree: balanced7, Edits: []EditSpec{{Node: "s2", Elem: "C", Value: 60e-15}}, Node: "s7"}
	steps := []struct {
		name   string
		path   string
		body   any
		stages string
		cache  string
		want   engine.CacheStats // the engine's session-result counters after the step
	}{
		{"register", "/v1/nets", RegisterRequest{Tree: balanced7}, "resolve", "miss", engine.CacheStats{}},
		{"delay", "/v1/delay", DelayRequest{Tree: balanced7, Node: "s7"}, "resolve,analyze", "hit", engine.CacheStats{}},
		{"analyze sweeps", "/v1/analyze", AnalyzeRequest{Tree: balanced7}, "resolve,analyze", "hit", engine.CacheStats{Misses: 1}},
		{"analyze held", "/v1/analyze", AnalyzeRequest{Tree: balanced7}, "resolve,analyze", "hit", engine.CacheStats{Hits: 1, Misses: 1}},
		{"edit", "/v1/edit", edit, "resolve,edit", "hit", engine.CacheStats{Hits: 1, Misses: 1}},
		{"batch", "/v1/batch", BatchRequest{Items: []BatchItem{{Tree: balanced7, Node: "s7"}, {Tree: balanced7}}}, "batch", "", engine.CacheStats{Hits: 1, Misses: 2}},
	}
	eng := engine.New(engine.Options{Workers: 2})
	s, fr := newFlightServer(t, Options{Engine: eng})
	for _, st := range steps {
		if code, raw := do(t, s, "POST", st.path, st.body); code != 200 {
			t.Fatalf("%s: status %d: %s", st.name, code, raw)
		}
		ev := fr.Snapshot(obs.Filter{})[0]
		var names []string
		var sum int64
		for _, sd := range ev.Stages() {
			names = append(names, sd.Name)
			sum += sd.NS
		}
		if got := strings.Join(names, ","); got != st.stages {
			t.Errorf("%s: stages = %q, want %q", st.name, got, st.stages)
		}
		if sum > ev.TotalNS {
			t.Errorf("%s: stages sum to %d ns, past the event's %d ns total", st.name, sum, ev.TotalNS)
		}
		if ev.Cache != st.cache {
			t.Errorf("%s: cache = %q, want %q", st.name, ev.Cache, st.cache)
		}
		if (ev.Net == "") != (st.cache == "") {
			t.Errorf("%s: net = %q, want a fingerprint exactly when the route resolves one", st.name, ev.Net)
		}
		if got := eng.CacheStats(); got != st.want {
			t.Errorf("%s: engine CacheStats = %+v, want %+v", st.name, got, st.want)
		}
	}
}

// TestRequestIDHonoredAndEchoed: a well-formed client ID (and attempt
// counter) flows into the event and back out on the response header; a
// malformed one is replaced by a server-generated ID.
func TestRequestIDHonoredAndEchoed(t *testing.T) {
	s, fr := newFlightServer(t, Options{})

	req := httptest.NewRequest("POST", "/v1/delay",
		strings.NewReader(`{"tree":"s1 - 25 1n 50f\n","node":"s1"}`))
	req.Header.Set(HeaderRequestID, "c-cafef00d")
	req.Header.Set(HeaderAttempt, "2")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(HeaderRequestID); got != "c-cafef00d" {
		t.Errorf("echoed request ID = %q, want the client's c-cafef00d", got)
	}
	ev := fr.Snapshot(obs.Filter{})[0]
	if ev.RequestID != "c-cafef00d" || ev.Attempt != 2 {
		t.Errorf("event correlation = (%q, %d), want (c-cafef00d, 2)", ev.RequestID, ev.Attempt)
	}

	req = httptest.NewRequest("POST", "/v1/delay",
		strings.NewReader(`{"tree":"s1 - 25 1n 50f\n","node":"s1"}`))
	req.Header.Set(HeaderRequestID, "spaces are not a token!")
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	got := rec.Header().Get(HeaderRequestID)
	if got == "" || strings.Contains(got, " ") {
		t.Errorf("malformed client ID not replaced: echoed %q", got)
	}
	if ev := fr.Snapshot(obs.Filter{})[0]; ev.RequestID != got {
		t.Errorf("event ID %q != echoed ID %q", ev.RequestID, got)
	}
}

// TestDebugEndpointsDisabledByDefault: without Options.DebugRequests the
// flight-recorder views must not exist — 404, same as any unknown path.
func TestDebugEndpointsDisabledByDefault(t *testing.T) {
	s := newTestServer(t, Options{})
	for _, path := range []string{"/v1/debug/requests", "/v1/debug/slow"} {
		if code, _ := do(t, s, "GET", path, nil); code != 404 {
			t.Errorf("GET %s on a default server = %d, want 404", path, code)
		}
	}
}

// TestDebugRequestsFiltersAndSlowCaptures drives the live endpoints:
// filter combinators on /v1/debug/requests, and a failed request's wide
// event, with its stages, in /v1/debug/slow.
func TestDebugRequestsFiltersAndSlowCaptures(t *testing.T) {
	s, _ := newFlightServer(t, Options{DebugRequests: true})

	// Three requests: two healthy delays, one parse failure with a
	// client-chosen correlation ID.
	for i := 0; i < 2; i++ {
		if code, _ := do(t, s, "POST", "/v1/delay", DelayRequest{Tree: balanced7, Node: "s7"}); code != 200 {
			t.Fatal("seed delay failed")
		}
	}
	req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(`{"tree": "broken"}`))
	req.Header.Set(HeaderRequestID, "debug-test-bad")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 400 {
		t.Fatalf("parse failure = %d, want 400", rec.Code)
	}

	query := func(q string) DebugRequestsResponse {
		t.Helper()
		code, raw := do(t, s, "GET", "/v1/debug/requests"+q, nil)
		if code != 200 {
			t.Fatalf("GET /v1/debug/requests%s = %d: %s", q, code, raw)
		}
		return decodeAs[DebugRequestsResponse](t, raw)
	}

	if all := query(""); len(all.Events) != 3 {
		t.Fatalf("unfiltered view holds %d events, want 3", len(all.Events))
	} else if all.Events[0].Route != "/v1/analyze" {
		t.Errorf("newest-first violated: first event route %q", all.Events[0].Route)
	}
	if got := query("?status=400"); len(got.Events) != 1 || got.Events[0].Class != "parse" {
		t.Errorf("status=400 filter returned %+v", got.Events)
	}
	if got := query("?route=/v1/delay"); len(got.Events) != 2 {
		t.Errorf("route filter returned %d events, want 2", len(got.Events))
	}
	if got := query("?id=debug-test-bad"); len(got.Events) != 1 || got.Events[0].Status != 400 {
		t.Errorf("id filter returned %+v", got.Events)
	}
	if got := query("?n=1"); len(got.Events) != 1 {
		t.Errorf("n=1 returned %d events", len(got.Events))
	}

	if code, _ := do(t, s, "GET", "/v1/debug/requests?status=many", nil); code != 400 {
		t.Errorf("malformed status filter = %d, want 400", code)
	}
	if code, _ := do(t, s, "POST", "/v1/debug/requests", nil); code != 405 {
		t.Errorf("POST /v1/debug/requests = %d, want 405", code)
	}

	// The failed request must sit in the capture buffer with the stage it
	// failed in.
	code, raw := do(t, s, "GET", "/v1/debug/slow", nil)
	if code != 200 {
		t.Fatalf("GET /v1/debug/slow = %d: %s", code, raw)
	}
	slow := decodeAs[DebugSlowResponse](t, raw)
	if len(slow.Captures) != 1 {
		t.Fatalf("capture buffer holds %d entries, want 1", len(slow.Captures))
	}
	cap := slow.Captures[0]
	if cap.RequestID != "debug-test-bad" || cap.Route != "/v1/analyze" || !cap.Captured {
		t.Errorf("capture = %+v, want the failed /v1/analyze request marked captured", cap)
	}
	if st := cap.Stages(); len(st) != 1 || st[0].Name != "resolve" {
		t.Errorf("capture stages = %+v, want the resolve stage it failed in", st)
	}
}

// TestHealthzUptimeAndGoVersion pins the health probe's new fields
// against a frozen clock.
func TestHealthzUptimeAndGoVersion(t *testing.T) {
	s := newTestServer(t, Options{})
	base := s.start
	s.clock = func() time.Time { return base.Add(90 * time.Second) }
	code, raw := do(t, s, "GET", "/healthz", nil)
	if code != 200 {
		t.Fatalf("healthz: %d: %s", code, raw)
	}
	h := decodeAs[HealthResponse](t, raw)
	if h.UptimeSeconds != 90 {
		t.Errorf("uptime_seconds = %d, want 90", h.UptimeSeconds)
	}
	if h.GoVersion != runtime.Version() {
		t.Errorf("go_version = %q, want %q", h.GoVersion, runtime.Version())
	}
}
