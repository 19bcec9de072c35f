package eedclient

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eedtree/internal/eedsrv"
	"eedtree/internal/engine"
	"eedtree/internal/faultinj"
)

const balanced7 = `s1 -  25 1n 50f
s2 s1 35 2n 60f
s3 s1 35 2n 60f
s4 s2 45 3n 70f
s5 s2 45 3n 70f
s6 s3 45 3n 70f
s7 s3 45 3n 70f
`

// script builds a test server whose responses come from the queue; once
// the queue is exhausted it answers 200 with okBody. Returns the server
// and a hit counter.
type scriptStep struct {
	status     int
	retryAfter string // Retry-After header value; "" = none
	body       string
}

func script(t *testing.T, steps []scriptStep, okBody string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(hits.Add(1)) - 1
		if n < len(steps) {
			st := steps[n]
			if st.retryAfter != "" {
				w.Header().Set("Retry-After", st.retryAfter)
			}
			w.WriteHeader(st.status)
			w.Write([]byte(st.body))
			return
		}
		w.Write([]byte(okBody))
	}))
	t.Cleanup(ts.Close)
	return ts, &hits
}

func newClient(t *testing.T, base string, mut func(*Options)) *Client {
	t.Helper()
	opts := Options{
		BaseURL:        base,
		RequestTimeout: 2 * time.Second,
		BackoffBase:    time.Millisecond,
		BackoffCap:     5 * time.Millisecond,
		Seed:           1,
	}
	if mut != nil {
		mut(&opts)
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

const errBody503 = `{"error":{"class":"draining","status":503,"message":"drain"}}`

func TestNewRejectsBadBaseURL(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("empty BaseURL accepted")
	}
	if _, err := New(Options{BaseURL: "127.0.0.1:80"}); err == nil {
		t.Fatal("scheme-less BaseURL accepted")
	}
}

func TestIdempotentRetriesUntilSuccess(t *testing.T) {
	ts, hits := script(t, []scriptStep{
		{status: 503, body: errBody503},
		{status: 500, body: `{"error":{"class":"internal","status":500,"message":"boom"}}`},
	}, `{"net":"abc","result":{"node":"s1","delay50":1e-9,"rise":2e-9,"elmore50":1e-9,"elmore_rise":2e-9}}`)
	c := newClient(t, ts.URL, nil)
	resp, err := c.Delay(context.Background(), DelayRequest{Net: "abc", Node: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.Node != "s1" {
		t.Fatalf("result = %+v", resp)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3", got)
	}
	if st := c.Stats(); st.Retries != 2 || st.Requests != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestClientFault4xxNotRetried(t *testing.T) {
	ts, hits := script(t, []scriptStep{
		{status: 400, body: `{"error":{"class":"parse","status":400,"message":"bad tree"}}`},
	}, "{}")
	c := newClient(t, ts.URL, nil)
	_, err := c.Delay(context.Background(), DelayRequest{Tree: "junk", Node: "x"})
	var ce *Error
	if !errors.As(err, &ce) {
		t.Fatalf("error type %T: %v", err, err)
	}
	if ce.Status != 400 || ce.Class != "parse" || ce.Attempts != 1 {
		t.Fatalf("error = %+v", ce)
	}
	if hits.Load() != 1 {
		t.Fatalf("server saw %d requests, want 1", hits.Load())
	}
}

func TestEditNotRetriedOnAmbiguousFailure(t *testing.T) {
	// A 500 without Retry-After might have executed: the edit must not
	// be replayed.
	ts, hits := script(t, []scriptStep{
		{status: 500, body: `{"error":{"class":"internal","status":500,"message":"boom"}}`},
	}, "{}")
	c := newClient(t, ts.URL, nil)
	_, err := c.Edit(context.Background(), EditRequest{Net: "abc", Node: "s1",
		Edits: []EditSpec{{Node: "s1", Elem: "C", Value: 1e-15}}})
	var ce *Error
	if !errors.As(err, &ce) || ce.Attempts != 1 || ce.RetryAfter {
		t.Fatalf("error = %+v (%v)", ce, err)
	}
	if hits.Load() != 1 {
		t.Fatalf("ambiguous edit failure was replayed (%d hits)", hits.Load())
	}
}

func TestEditRetriedWhenRetryAfterProvesUnexecuted(t *testing.T) {
	ts, hits := script(t, []scriptStep{
		{status: 503, retryAfter: "0", body: errBody503},
		{status: 504, retryAfter: "0", body: `{"error":{"class":"canceled","status":504,"message":"queued too long"}}`},
	}, `{"net":"def","applied":1,"result":{"node":"s1","delay50":1e-9,"rise":2e-9,"elmore50":1e-9,"elmore_rise":2e-9}}`)
	c := newClient(t, ts.URL, nil)
	resp, err := c.Edit(context.Background(), EditRequest{Net: "abc", Node: "s1",
		Edits: []EditSpec{{Node: "s1", Elem: "C", Value: 1e-15}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Net != "def" || hits.Load() != 3 {
		t.Fatalf("resp=%+v hits=%d", resp, hits.Load())
	}
}

func TestEditRetriedOnDialError(t *testing.T) {
	// Reserve a port, then close it: dialing it must fail fast.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + l.Addr().String()
	l.Close()
	c := newClient(t, dead, func(o *Options) {
		o.MaxRetries = 2
		o.BreakerThreshold = -1
	})
	_, err = c.Edit(context.Background(), EditRequest{Net: "abc", Node: "s1",
		Edits: []EditSpec{{Node: "s1", Elem: "C", Value: 1e-15}}})
	var ce *Error
	if !errors.As(err, &ce) {
		t.Fatalf("error type %T", err)
	}
	// Dial errors prove the request never left the process, so even the
	// edit burned its full retry budget: 1 + MaxRetries attempts.
	if ce.Attempts != 3 || ce.Status != 0 {
		t.Fatalf("error = %+v", ce)
	}
	if sentBeforeFailure(ce.Err) {
		t.Fatalf("dial error misclassified as sent: %v", ce.Err)
	}
}

func TestBreakerOpensRefusesAndRecovers(t *testing.T) {
	var healthy atomic.Bool
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if healthy.Load() {
			w.Write([]byte(`{"capacity":4,"resident":0,"nets":[]}`))
			return
		}
		w.WriteHeader(500)
		w.Write([]byte(`{"error":{"class":"internal","status":500,"message":"boom"}}`))
	}))
	defer ts.Close()
	c := newClient(t, ts.URL, func(o *Options) {
		o.MaxRetries = -1 // isolate the breaker from the retry loop
		o.BreakerThreshold = 3
		o.BreakerCooldown = 40 * time.Millisecond
	})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := c.Nets(ctx); err == nil {
			t.Fatal("sick server answered 200?")
		}
	}
	if st := c.BreakerState(); st != "open" {
		t.Fatalf("breaker after %d failures: %s", 3, st)
	}
	seen := hits.Load()
	_, err := c.Nets(ctx)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker let a request through: %v", err)
	}
	var ce *Error
	if !errors.As(err, &ce) || ce.Status != 500 || ce.Class != "internal" {
		t.Fatalf("breaker refusal lost the opening failure's context: %+v", ce)
	}
	if hits.Load() != seen {
		t.Fatal("refused request still reached the server")
	}
	if st := c.Stats(); st.BreakerTrips != 1 || st.BreakerDrops != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// Cooldown elapses; the next request is the half-open probe. The
	// server is healthy again, so the probe closes the breaker.
	healthy.Store(true)
	time.Sleep(60 * time.Millisecond)
	if _, err := c.Nets(ctx); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if st := c.BreakerState(); st != "closed" {
		t.Fatalf("breaker after successful probe: %s", st)
	}
}

func TestBreakerHalfOpenFailedProbeReopens(t *testing.T) {
	ts, _ := script(t, make([]scriptStep, 0), "")
	ts.Close() // always dial-fail
	c := newClient(t, ts.URL, func(o *Options) {
		o.MaxRetries = -1
		o.BreakerThreshold = 1
		o.BreakerCooldown = 20 * time.Millisecond
	})
	ctx := context.Background()
	c.Nets(ctx) // opens the breaker
	if st := c.BreakerState(); st != "open" {
		t.Fatalf("state = %s", st)
	}
	time.Sleep(30 * time.Millisecond)
	c.Nets(ctx) // half-open probe, fails, reopens
	if st := c.BreakerState(); st != "open" {
		t.Fatalf("state after failed probe = %s", st)
	}
}

func TestHealthParsesDrainingBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(503)
		json.NewEncoder(w).Encode(HealthResponse{Status: "draining", Inflight: 2, ResidentNets: 5})
	}))
	defer ts.Close()
	c := newClient(t, ts.URL, nil)
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatalf("Health on draining server: %v", err)
	}
	if h.Status != "draining" || h.Inflight != 2 || h.ResidentNets != 5 {
		t.Fatalf("health = %+v", h)
	}
}

// End-to-end against the real service handler: the injected
// queue-timeout (a pre-execution 504 with Retry-After) must be retried
// transparently even for an edit, and the edit must apply exactly once.
func TestEditRetryProtocolAgainstRealServer(t *testing.T) {
	srv := eedsrv.New(eedsrv.Options{Engine: engine.New(engine.Options{Workers: 2})})
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
	resp, err := c.Edit(ctx, EditRequest{Net: info.Net, Node: "s7",
		Edits: []EditSpec{{Node: "s4", Elem: "C", Value: 90e-15}}})
	if err != nil {
		t.Fatalf("edit through injected queue timeout: %v", err)
	}
	if resp.Applied != 1 || resp.Net == info.Net {
		t.Fatalf("edit response = %+v", resp)
	}
	if faultinj.Fired(faultinj.SrvQueueTimeout) != 1 {
		t.Fatal("fault never fired; the retry path was not exercised")
	}
	// The replayed edit applied exactly once: querying the new net at the
	// edited section shows exactly one re-key, and the old key is gone.
	if _, err := c.Delay(ctx, DelayRequest{Net: resp.Net, Node: "s7"}); err != nil {
		t.Fatalf("querying post-edit net: %v", err)
	}
}

// TestConcurrentClientsReuseTheirConnections: eight clients call at once,
// round after round, each one call at a time. Each keeps reusing its own
// connection instead of dialing anew whenever a shared pool overflows.
func TestConcurrentClientsReuseTheirConnections(t *testing.T) {
	var dials atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	const clients, rounds = 8, 20
	cs := make([]*Client, clients)
	for i := range cs {
		cs[i] = newClient(t, ts.URL, nil)
	}
	for r := 0; r < rounds; r++ {
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for i, c := range cs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = c.Health(context.Background())
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
	}
	if n := dials.Load(); n > 2*clients {
		t.Errorf("%d clients dialed %d connections over %d rounds, want at most %d", clients, n, rounds, 2*clients)
	}
}
