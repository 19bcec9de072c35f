package eedsrv

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"eedtree/internal/faultinj"
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

// doH is do() plus the response headers, for Retry-After assertions.
func doH(t *testing.T, s *Server, method, path string, body any) (int, []byte, http.Header) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	if body == nil {
		raw = nil
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), rec.Result().Header
}

// TestInjectedNumericEditAppliesNothing: an edit whose analysis fails —
// here an injected sess.numeric — puts its values back before the registry
// re-keys, so the net keeps its fingerprint and its answers.
func TestInjectedNumericEditAppliesNothing(t *testing.T) {
	s := newTestServer(t, Options{})
	info := register(t, s, balanced7)
	query := func() []byte {
		t.Helper()
		code, raw := do(t, s, "POST", "/v1/delay", DelayRequest{Net: info.Net, Node: "s7"})
		if code != 200 {
			t.Fatalf("delay by the pre-edit key: status %d: %s", code, raw)
		}
		return raw
	}
	before := query()
	armFaults(t, "sess.numeric:p=1,n=1")
	code, raw := do(t, s, "POST", "/v1/edit", EditRequest{
		Net:   info.Net,
		Edits: []EditSpec{{Node: "s4", Elem: "C", Value: 80e-15}, {Node: "s2", Elem: "R", Value: 30}},
		Node:  "s7",
	})
	if code != 422 || decodeAs[ErrorResponse](t, raw).Error.Class != "numeric" {
		t.Fatalf("edit under sess.numeric: status %d: %s, want 422 numeric", code, raw)
	}
	if after := query(); !bytes.Equal(after, before) {
		t.Fatalf("refused edit changed the answer:\nbefore %s\nafter  %s", before, after)
	}
}

// Satellite: every pre-execution rejection must carry Retry-After, the
// client's proof that the request never ran and is safe to retry even
// when non-idempotent.
func TestRetryAfterOnPreExecutionRejections(t *testing.T) {
	t.Run("drain503", func(t *testing.T) {
		s := newTestServer(t, Options{RetryAfter: 3 * time.Second})
		info := register(t, s, balanced7)
		s.Drain()
		code, _, hdr := doH(t, s, "POST", "/v1/delay", DelayRequest{Net: info.Net, Node: "s1"})
		if code != 503 {
			t.Fatalf("status %d, want 503", code)
		}
		if got := hdr.Get("Retry-After"); got != "3" {
			t.Fatalf("Retry-After = %q, want \"3\"", got)
		}
	})
	t.Run("queued504", func(t *testing.T) {
		s := newTestServer(t, Options{MaxInflight: 1, RequestTimeout: 20 * time.Millisecond})
		register(t, s, balanced7)
		s.sem <- struct{}{}
		defer func() { <-s.sem }()
		code, _, hdr := doH(t, s, "POST", "/v1/delay", DelayRequest{Tree: balanced7, Node: "s1"})
		if code != 504 {
			t.Fatalf("status %d, want 504", code)
		}
		// No RetryAfter option set: the default (1s) applies.
		if got := hdr.Get("Retry-After"); got != "1" {
			t.Fatalf("Retry-After = %q, want \"1\"", got)
		}
	})
	t.Run("injectedQueueTimeout504", func(t *testing.T) {
		s := newTestServer(t, Options{})
		armFaults(t, "srv.queue_timeout:p=1,n=1")
		code, raw, hdr := doH(t, s, "POST", "/v1/delay", DelayRequest{Tree: balanced7, Node: "s1"})
		if code != 504 {
			t.Fatalf("status %d, want 504: %s", code, raw)
		}
		if er := decodeAs[ErrorResponse](t, raw); er.Error.Class != "canceled" {
			t.Fatalf("class = %q, want canceled", er.Error.Class)
		}
		if hdr.Get("Retry-After") == "" {
			t.Fatal("injected queue timeout lost its Retry-After header")
		}
	})
}

// A deadline that fires mid-execution (here: during an injected stall,
// i.e. after the request started running) must NOT carry Retry-After —
// the client cannot know whether the work took effect.
func TestMidExecutionCancelHasNoRetryAfter(t *testing.T) {
	s := newTestServer(t, Options{RequestTimeout: 25 * time.Millisecond})
	armFaults(t, "srv.stall:p=1,n=1,d=2s")
	code, raw, hdr := doH(t, s, "POST", "/v1/delay", DelayRequest{Tree: balanced7, Node: "s1"})
	if code != 504 {
		t.Fatalf("status %d, want 504: %s", code, raw)
	}
	if er := decodeAs[ErrorResponse](t, raw); er.Error.Class != "canceled" {
		t.Fatalf("class = %q, want canceled", er.Error.Class)
	}
	if got := hdr.Get("Retry-After"); got != "" {
		t.Fatalf("mid-execution 504 must not advertise Retry-After, got %q", got)
	}
}

// Satellite: drain must reject new work immediately while requests
// already holding a worker slot run to completion with correct results.
func TestDrainWhileInflightCompletes(t *testing.T) {
	s := newTestServer(t, Options{MaxInflight: 4})
	info := register(t, s, balanced7)
	// Ground truth before any fault plan is armed.
	code, raw0 := do(t, s, "POST", "/v1/delay", DelayRequest{Net: info.Net, Node: "s7"})
	if code != 200 {
		t.Fatalf("baseline delay: %d: %s", code, raw0)
	}

	// Every subsequent analysis request stalls 300ms inside its slot.
	armFaults(t, "srv.stall:p=1,d=300ms")
	var (
		wg       sync.WaitGroup
		slowCode int
		slowRaw  []byte
	)
	started := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		slowCode, slowRaw = do(t, s, "POST", "/v1/delay", DelayRequest{Net: info.Net, Node: "s7"})
	}()
	<-started
	// Let the slow request clear the drain check and enter its stall.
	for i := 0; i < 200 && s.Inflight() == 0; i++ {
		time.Sleep(2 * time.Millisecond)
	}
	if s.Inflight() == 0 {
		t.Fatal("slow request never reached its worker slot")
	}
	s.Drain()
	code, _, hdr := doH(t, s, "POST", "/v1/delay", DelayRequest{Net: info.Net, Node: "s7"})
	if code != 503 || hdr.Get("Retry-After") == "" {
		t.Fatalf("new work during drain: %d (Retry-After %q), want 503 with header", code, hdr.Get("Retry-After"))
	}
	wg.Wait()
	if slowCode != 200 {
		t.Fatalf("in-flight request during drain: %d: %s", slowCode, slowRaw)
	}
	// NodeResult carries pointer fields, so compare the serialized bytes.
	if !bytes.Equal(slowRaw, raw0) {
		t.Fatalf("in-flight result drifted under drain:\n got %s\nwant %s", slowRaw, raw0)
	}
}

// Satellite: /healthz reports a JSON body with live inflight and
// resident-net gauges.
func TestHealthzReportsResidentNets(t *testing.T) {
	s := newTestServer(t, Options{})
	code, raw := do(t, s, "GET", "/healthz", nil)
	if code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	h := decodeAs[HealthResponse](t, raw)
	if h.Status != "ok" || h.Inflight != 0 || h.ResidentNets != 0 {
		t.Fatalf("empty server health = %+v", h)
	}
	register(t, s, balanced7)
	register(t, s, "a - 1 1n 1f\n")
	_, raw = do(t, s, "GET", "/healthz", nil)
	if h := decodeAs[HealthResponse](t, raw); h.ResidentNets != 2 {
		t.Fatalf("health after two registers = %+v, want resident_nets=2", h)
	}
}

func TestFaultsEndpointHiddenByDefault(t *testing.T) {
	s := newTestServer(t, Options{})
	if code, _ := do(t, s, "GET", "/v1/faults", nil); code != 404 {
		t.Fatalf("/v1/faults without EnableFaults: %d, want 404", code)
	}
}

func TestFaultsEndpointArmInspectDisarm(t *testing.T) {
	s := newTestServer(t, Options{EnableFaults: true})
	t.Cleanup(faultinj.Deactivate)
	register(t, s, balanced7)

	code, raw := do(t, s, "GET", "/v1/faults", nil)
	if code != 200 {
		t.Fatalf("GET: %d", code)
	}
	if fr := decodeAs[FaultsResponse](t, raw); fr.Enabled {
		t.Fatalf("faults enabled before arming: %+v", fr)
	}

	spec := "seed=9;srv.stall:p=1,n=2,d=1ms;sess.numeric:p=0"
	code, raw = do(t, s, "POST", "/v1/faults", FaultsRequest{Spec: spec})
	if code != 200 {
		t.Fatalf("POST arm: %d: %s", code, raw)
	}
	fr := decodeAs[FaultsResponse](t, raw)
	if !fr.Enabled || len(fr.Points) != 2 {
		t.Fatalf("armed view = %+v", fr)
	}
	if !strings.Contains(fr.Spec, "seed=9") || !strings.Contains(fr.Spec, "srv.stall") {
		t.Fatalf("canonical spec = %q", fr.Spec)
	}
	// The plan is live: a request trips the stall and the counters move.
	if code, raw := do(t, s, "POST", "/v1/delay", DelayRequest{Tree: balanced7, Node: "s1"}); code != 200 {
		t.Fatalf("delay under 1ms stall: %d: %s", code, raw)
	}
	_, raw = do(t, s, "GET", "/v1/faults", nil)
	fr = decodeAs[FaultsResponse](t, raw)
	var stallFired uint64
	for _, p := range fr.Points {
		if p.Point == "srv.stall" {
			stallFired = p.Fired
			if p.D != "1ms" {
				t.Fatalf("stall duration on the wire = %q", p.D)
			}
		}
	}
	if stallFired != 1 {
		t.Fatalf("srv.stall fired %d times, want 1", stallFired)
	}

	code, raw = do(t, s, "POST", "/v1/faults", FaultsRequest{Spec: ""})
	if code != 200 {
		t.Fatalf("POST disarm: %d", code)
	}
	if fr := decodeAs[FaultsResponse](t, raw); fr.Enabled {
		t.Fatalf("still enabled after disarm: %+v", fr)
	}
	if faultinj.On() {
		t.Fatal("global plan still active after disarm")
	}
}

func TestFaultsEndpointRejectsBadSpecAndMethod(t *testing.T) {
	s := newTestServer(t, Options{EnableFaults: true})
	t.Cleanup(faultinj.Deactivate)
	code, raw := do(t, s, "POST", "/v1/faults", FaultsRequest{Spec: "srv.stall:p=7"})
	if code != 400 {
		t.Fatalf("bad spec: %d: %s", code, raw)
	}
	if er := decodeAs[ErrorResponse](t, raw); er.Error.Class != "parse" {
		t.Fatalf("bad-spec class = %q, want parse", er.Error.Class)
	}
	if faultinj.On() {
		t.Fatal("rejected spec must not arm anything")
	}
	if code, _ := do(t, s, "DELETE", "/v1/faults", nil); code != 405 {
		t.Fatalf("DELETE: %d, want 405", code)
	}
}

// Satellite: the faults endpoint keeps working on a draining server so a
// chaos harness can always clear its plan.
func TestFaultsEndpointSurvivesDrain(t *testing.T) {
	s := newTestServer(t, Options{EnableFaults: true})
	t.Cleanup(faultinj.Deactivate)
	s.Drain()
	code, _ := do(t, s, "POST", "/v1/faults", FaultsRequest{Spec: "srv.stall:p=1"})
	if code != 200 {
		t.Fatalf("arming on a draining server: %d, want 200", code)
	}
	if code, _ := do(t, s, "POST", "/v1/faults", FaultsRequest{Spec: ""}); code != 200 {
		t.Fatalf("disarming on a draining server: %d, want 200", code)
	}
}

// TestServerGaugesReturnToStart: eed_server_queued and
// eed_server_inflight end where they started after a request that timed
// out in the queue and after one whose handler panicked.
func TestServerGaugesReturnToStart(t *testing.T) {
	queued, inflight := mQueued.Value(), mInflight.Value()
	check := func(after string) {
		t.Helper()
		if q, f := mQueued.Value(), mInflight.Value(); q != queued || f != inflight {
			t.Errorf("after %s: queued %d, inflight %d; want %d, %d", after, q, f, queued, inflight)
		}
	}
	s := newTestServer(t, Options{MaxInflight: 1, RequestTimeout: 20 * time.Millisecond})
	s.sem <- struct{}{} // hold the only worker slot
	code, _ := do(t, s, "POST", "/v1/delay", DelayRequest{Tree: balanced7, Node: "s1"})
	<-s.sem
	if code != 504 {
		t.Fatalf("queued request: status %d, want 504", code)
	}
	check("a queued 504")
	armFaults(t, "srv.panic:p=1,n=1")
	if code, _ := do(t, s, "POST", "/v1/delay", DelayRequest{Tree: balanced7, Node: "s1"}); code != 500 {
		t.Fatalf("panicking request: status %d, want 500", code)
	}
	check("a handler panic")
}

// srv.panic is recovered by the analysis middleware into a JSON 500 on
// the still-open connection; srv.conn_drop (http.ErrAbortHandler) still
// severs the transport. The server survives both and keeps serving.
// Needs a real listener: net/http's per-connection abort handling is
// half the contract under test.
func TestInjectedPanicAndConnDropOverRealServer(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ErrorLog = log.New(io.Discard, "", 0) // silence the panic stacks
	ts.Start()
	defer ts.Close()

	post := func() (*http.Response, error) {
		body, _ := json.Marshal(DelayRequest{Tree: balanced7, Node: "s1"})
		return http.Post(ts.URL+"/v1/delay", "application/json", bytes.NewReader(body))
	}
	armFaults(t, "srv.panic:p=1,n=1;srv.conn_drop:p=1,n=1")
	// First request trips srv.panic: recovered into a 500 with the
	// internal class, connection intact.
	resp, err := post()
	if err != nil {
		t.Fatalf("panic request: want a recovered 500, got transport error %v", err)
	}
	var errResp ErrorResponse
	decErr := json.NewDecoder(resp.Body).Decode(&errResp)
	resp.Body.Close()
	if resp.StatusCode != 500 || decErr != nil || errResp.Error.Class != "internal" {
		t.Fatalf("panic request: status %d class %q (decode err %v), want 500/internal",
			resp.StatusCode, errResp.Error.Class, decErr)
	}
	// Second request trips srv.conn_drop: the transport is severed.
	if resp, err := post(); err == nil {
		resp.Body.Close()
		t.Fatalf("conn_drop request: got status %d, want a transport error", resp.StatusCode)
	}
	// Both single-shot budgets are spent: the server answers normally.
	resp, err = post()
	if err != nil {
		t.Fatalf("post-fault request: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("post-fault status %d", resp.StatusCode)
	}
	if fired := faultinj.Fired(faultinj.SrvPanic); fired != 1 {
		t.Fatalf("srv.panic fired %d times, want 1", fired)
	}
	if fired := faultinj.Fired(faultinj.SrvConnDrop); fired != 1 {
		t.Fatalf("srv.conn_drop fired %d times, want 1", fired)
	}
}
