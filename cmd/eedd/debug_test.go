package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eedtree/internal/eedclient"
	"eedtree/internal/eedsrv"
)

const smokeTree = `s1 -  25 1n 50f
s2 s1 35 2n 60f
s3 s1 35 2n 60f
s4 s2 45 3n 70f
s5 s2 45 3n 70f
s6 s3 45 3n 70f
s7 s3 45 3n 70f
`

// TestDebugEndpointsSmoke is the flight-recorder smoke over the real
// daemon: 100 mixed eedclient requests against `eedd -debug-requests`,
// including an edit whose first attempt dies on an injected
// queue-timeout, then the live debug views must show the correlated
// attempt pair and the structured log must carry matching request IDs.
func TestDebugEndpointsSmoke(t *testing.T) {
	logFile := filepath.Join(t.TempDir(), "eedd.log")
	_, base, _ := startDaemon(t, "-debug-requests", "-faults-admin", "-log", logFile)

	c, err := eedclient.New(eedclient.Options{BaseURL: base, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	info, err := c.Register(ctx, smokeTree)
	if err != nil {
		t.Fatal(err)
	}

	// Mixed steady-state traffic: point queries and whole-tree sweeps.
	for i := 0; i < 97; i++ {
		if i%3 == 0 {
			if _, err := c.Analyze(ctx, eedclient.AnalyzeRequest{Net: info.Net}); err != nil {
				t.Fatalf("analyze %d: %v", i, err)
			}
		} else {
			if _, err := c.Delay(ctx, eedclient.DelayRequest{Net: info.Net, Node: "s7"}); err != nil {
				t.Fatalf("delay %d: %v", i, err)
			}
		}
	}

	// One edit through an injected pre-execution 504: the client retries
	// under the same correlation ID.
	if _, err := c.SetFaults(ctx, "srv.queue_timeout:p=1,n=1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Edit(ctx, eedclient.EditRequest{Net: info.Net, Node: "s7",
		Edits: []eedclient.EditSpec{{Node: "s4", Elem: "C", Value: 90e-15}}}); err != nil {
		t.Fatalf("edit through injected 504: %v", err)
	}
	rid := c.LastRequestID()

	var dbg eedsrv.DebugRequestsResponse
	getDebugJSON(t, base+"/v1/debug/requests?id="+rid, &dbg)
	if len(dbg.Events) != 2 {
		t.Fatalf("debug view holds %d events for the edit's ID %s, want 2", len(dbg.Events), rid)
	}
	if dbg.Events[1].Attempt != 1 || dbg.Events[1].Status != 504 ||
		dbg.Events[0].Attempt != 2 || dbg.Events[0].Status != 200 {
		t.Fatalf("attempt pair = %+v", dbg.Events)
	}

	// The whole run is retained (ring 1024 > 100 requests): every event
	// carries a client-minted correlation ID.
	getDebugJSON(t, base+"/v1/debug/requests", &dbg)
	if len(dbg.Events) < 100 {
		t.Fatalf("debug view retains %d events, want the full run (>= 100)", len(dbg.Events))
	}
	for _, ev := range dbg.Events {
		if !strings.HasPrefix(ev.RequestID, "c-") {
			t.Fatalf("event %d lacks a client-minted ID: %+v", ev.Seq, ev)
		}
	}

	// The 504 must sit in the slow/error capture buffer.
	var slow eedsrv.DebugSlowResponse
	getDebugJSON(t, base+"/v1/debug/slow", &slow)
	found := false
	for _, ev := range slow.Captures {
		if ev.RequestID == rid && ev.Status == 504 && ev.Attempt == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no first-attempt 504 capture for %s among %d captures", rid, len(slow.Captures))
	}

	// Structured log: JSON lines whose request_id matches the edit's ID,
	// one per attempt.
	raw, err := os.ReadFile(logFile)
	if err != nil {
		t.Fatal(err)
	}
	logged := 0
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rec struct {
			Msg       string `json:"msg"`
			RequestID string `json:"request_id"`
			Status    int    `json:"status"`
			Attempt   int    `json:"attempt"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		if rec.Msg == "request" && rec.RequestID == rid {
			logged++
		}
	}
	if logged != 2 {
		t.Fatalf("structured log holds %d records for %s, want one per attempt (2)", logged, rid)
	}
}

// TestSlowThresholdReachesServer: under `-slow-threshold 1ns` every
// request is slow, so one healthy /v1/delay lands in /v1/debug/slow.
func TestSlowThresholdReachesServer(t *testing.T) {
	_, base, _ := startDaemon(t, "-debug-requests", "-slow-threshold", "1ns")
	if code := postDelay(t, base); code != 200 {
		t.Fatalf("delay: status %d", code)
	}
	var slow eedsrv.DebugSlowResponse
	getDebugJSON(t, base+"/v1/debug/slow", &slow)
	if len(slow.Captures) != 1 || slow.Captures[0].Route != "/v1/delay" || slow.Captures[0].Status != 200 {
		t.Fatalf("captures = %+v, want the one healthy /v1/delay", slow.Captures)
	}
}

// TestDebugEndpointsAbsentByDefault: without -debug-requests the daemon
// must not expose the flight-recorder views.
func TestDebugEndpointsAbsentByDefault(t *testing.T) {
	_, base, _ := startDaemon(t)
	resp, err := http.Get(base + "/v1/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("GET /v1/debug/requests on a default daemon = %d, want 404", resp.StatusCode)
	}
}

func getDebugJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
