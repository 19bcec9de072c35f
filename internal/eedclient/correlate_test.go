package eedclient

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"eedtree/internal/eedsrv"
	"eedtree/internal/engine"
	"eedtree/internal/faultinj"
	"eedtree/internal/obs"
)

// TestRetriedEditIsCorrelatedInFlightRecorder is the end-to-end
// correlation proof: an edit whose first attempt dies on an injected
// queue-timeout (504 + Retry-After) is retried by the client under ONE
// request ID, and the server's /v1/debug/requests view shows both
// attempts — attempt 1 carrying the 504 wide event (also captured in
// /v1/debug/slow), attempt 2 the success.
func TestRetriedEditIsCorrelatedInFlightRecorder(t *testing.T) {
	fr := obs.NewFlightRecorder(64, 8, time.Hour)
	srv := eedsrv.New(eedsrv.Options{
		Engine:        engine.New(engine.Options{Workers: 2}),
		Flight:        fr,
		DebugRequests: true,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := newClient(t, ts.URL, nil)
	ctx := context.Background()

	info, err := c.Register(ctx, balanced7)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faultinj.Parse("srv.queue_timeout:p=1,n=1")
	if err != nil {
		t.Fatal(err)
	}
	faultinj.Activate(plan)
	t.Cleanup(faultinj.Deactivate)

	if _, err := c.Edit(ctx, EditRequest{Net: info.Net, Node: "s7",
		Edits: []EditSpec{{Node: "s4", Elem: "C", Value: 90e-15}}}); err != nil {
		t.Fatalf("edit should have been retried to success: %v", err)
	}
	rid := c.LastRequestID()
	if rid == "" {
		t.Fatal("client reports no request ID for the edit")
	}

	// Both attempts must sit in the live debug view under the one ID.
	var dbg eedsrv.DebugRequestsResponse
	getJSON(t, ts.URL+"/v1/debug/requests?id="+rid, &dbg)
	if len(dbg.Events) != 2 {
		t.Fatalf("debug view holds %d events for %s, want both attempts: %+v", len(dbg.Events), rid, dbg.Events)
	}
	// Snapshot order is newest first: attempt 2 (success), then 1 (504).
	second, first := dbg.Events[0], dbg.Events[1]
	if first.Attempt != 1 || second.Attempt != 2 {
		t.Errorf("attempts = (%d, %d), want (1, 2)", first.Attempt, second.Attempt)
	}
	if first.Status != http.StatusGatewayTimeout || first.Class != "canceled" {
		t.Errorf("attempt 1 = status %d class %q, want the injected 504/canceled", first.Status, first.Class)
	}
	if second.Status != http.StatusOK {
		t.Errorf("attempt 2 = status %d, want 200", second.Status)
	}
	if first.Route != "/v1/edit" || second.Route != "/v1/edit" {
		t.Errorf("routes = (%q, %q), want /v1/edit twice", first.Route, second.Route)
	}
	if !first.Captured {
		t.Error("the 504 attempt was not captured")
	}

	// The captured 504 must be served by /v1/debug/slow.
	var slow eedsrv.DebugSlowResponse
	getJSON(t, ts.URL+"/v1/debug/slow", &slow)
	found := false
	for _, ev := range slow.Captures {
		if ev.RequestID == rid && ev.Status == http.StatusGatewayTimeout && ev.Attempt == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no capture for %s among %d captures", rid, len(slow.Captures))
	}
}

// TestAttemptHeadersOnTheWire pins the raw header contract: every
// attempt of one operation sends the same X-Eed-Request-Id and a 1-based
// incrementing X-Eed-Attempt.
func TestAttemptHeadersOnTheWire(t *testing.T) {
	type seen struct{ rid, attempt string }
	var mu sync.Mutex
	var got []seen
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got = append(got, seen{r.Header.Get(eedsrv.HeaderRequestID), r.Header.Get(eedsrv.HeaderAttempt)})
		n := len(got)
		mu.Unlock()
		if n < 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"capacity":1,"resident":0,"hits":0,"misses":0,"evictions":0,"nets":[]}`))
	}))
	defer ts.Close()
	c := newClient(t, ts.URL, nil)
	if _, err := c.Nets(context.Background()); err != nil {
		t.Fatalf("nets after retries: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("server saw %d attempts, want 3", len(got))
	}
	if got[0].rid == "" {
		t.Fatal("no request ID header sent")
	}
	if got[0].rid != c.LastRequestID() {
		t.Errorf("header ID %q != LastRequestID %q", got[0].rid, c.LastRequestID())
	}
	for i, s := range got {
		if s.rid != got[0].rid {
			t.Errorf("attempt %d switched request ID: %q vs %q", i+1, s.rid, got[0].rid)
		}
		if want := []string{"1", "2", "3"}[i]; s.attempt != want {
			t.Errorf("attempt header %d = %q, want %q", i, s.attempt, want)
		}
	}

	// A second operation must draw a fresh ID.
	prev := c.LastRequestID()
	got = got[:0]
	c.Nets(context.Background())
	if c.LastRequestID() == prev {
		t.Error("second operation reused the first operation's request ID")
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, raw)
	}
}
