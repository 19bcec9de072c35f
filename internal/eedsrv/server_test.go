package eedsrv

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"eedtree/internal/engine"
	"eedtree/internal/guard"
)

// balanced7 is the paper's Fig-5 balanced binary tree, the shared test
// net of the package.
const balanced7 = `s1 -  25 1n 50f
s2 s1 25 1n 50f
s3 s1 25 1n 50f
s4 s2 25 1n 50f
s5 s2 25 1n 50f
s6 s3 25 1n 50f
s7 s3 25 1n 50f
`

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Engine == nil {
		opts.Engine = engine.New(engine.Options{Workers: 2})
	}
	return New(opts)
}

// do executes one request against the server's handler in process.
func do(t *testing.T, s *Server, method, path string, body any) (int, []byte) {
	t.Helper()
	var rd *bytes.Reader
	switch b := body.(type) {
	case nil:
		rd = bytes.NewReader(nil)
	case string:
		rd = bytes.NewReader([]byte(b))
	default:
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func decodeAs[T any](t *testing.T, raw []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("response is not valid %T: %v\n%s", v, err, raw)
	}
	return v
}

func register(t *testing.T, s *Server, tree string) NetInfo {
	t.Helper()
	code, raw := do(t, s, "POST", "/v1/nets", RegisterRequest{Tree: tree})
	if code != 200 {
		t.Fatalf("register: status %d: %s", code, raw)
	}
	return decodeAs[NetInfo](t, raw)
}

func TestRegisterAndPointQuery(t *testing.T) {
	s := newTestServer(t, Options{})
	info := register(t, s, balanced7)
	if info.Sections != 7 || info.Depth != 3 || len(info.Net) != 64 {
		t.Fatalf("register info = %+v", info)
	}

	code, raw := do(t, s, "POST", "/v1/delay", DelayRequest{Net: info.Net, Node: "s7"})
	if code != 200 {
		t.Fatalf("delay: status %d: %s", code, raw)
	}
	resp := decodeAs[DelayResponse](t, raw)
	if resp.Net != info.Net || resp.Result.Node != "s7" || resp.Result.Delay50 <= 0 {
		t.Fatalf("delay response = %+v", resp)
	}
	if resp.Result.Zeta == nil || resp.Result.OmegaN == nil {
		t.Fatal("inductive node should carry a second-order model")
	}

	// The second query must be a registry hit — the warm-session path.
	before := s.Registry().Stats()
	code, _ = do(t, s, "POST", "/v1/delay", DelayRequest{Net: info.Net, Node: "s4"})
	if code != 200 {
		t.Fatalf("second delay: status %d", code)
	}
	after := s.Registry().Stats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("expected a registry hit: before %+v after %+v", before, after)
	}
}

func TestInlineTreeRegistersAndWarmsNet(t *testing.T) {
	s := newTestServer(t, Options{})
	code, raw := do(t, s, "POST", "/v1/delay", DelayRequest{Tree: balanced7, Node: "s1"})
	if code != 200 {
		t.Fatalf("inline delay: status %d: %s", code, raw)
	}
	resp := decodeAs[DelayResponse](t, raw)
	// The net is now resident under the returned fingerprint.
	code, _ = do(t, s, "POST", "/v1/analyze", AnalyzeRequest{Net: resp.Net})
	if code != 200 {
		t.Fatalf("analyze by returned net id: status %d", code)
	}
}

func TestAnalyzeWholeTree(t *testing.T) {
	s := newTestServer(t, Options{})
	info := register(t, s, balanced7)
	code, raw := do(t, s, "POST", "/v1/analyze", AnalyzeRequest{Net: info.Net})
	if code != 200 {
		t.Fatalf("analyze: status %d: %s", code, raw)
	}
	resp := decodeAs[AnalyzeResponse](t, raw)
	if len(resp.Nodes) != 7 {
		t.Fatalf("got %d nodes, want 7", len(resp.Nodes))
	}
	for i, want := range []string{"s1", "s2", "s3", "s4", "s5", "s6", "s7"} {
		if resp.Nodes[i].Node != want {
			t.Fatalf("node %d = %q, want %q (topological order)", i, resp.Nodes[i].Node, want)
		}
	}
}

func TestEditRekeysNet(t *testing.T) {
	s := newTestServer(t, Options{})
	info := register(t, s, balanced7)
	code, raw := do(t, s, "POST", "/v1/edit", EditRequest{
		Net:   info.Net,
		Edits: []EditSpec{{Node: "s4", Elem: "C", Value: 80e-15}, {Node: "s2", Elem: "r", Value: 30}},
		Node:  "s7",
	})
	if code != 200 {
		t.Fatalf("edit: status %d: %s", code, raw)
	}
	resp := decodeAs[EditResponse](t, raw)
	if resp.Applied != 2 || resp.Net == info.Net || len(resp.Net) != 64 {
		t.Fatalf("edit response = %+v", resp)
	}

	// The old key is gone (content changed), the new key serves.
	code, _ = do(t, s, "POST", "/v1/delay", DelayRequest{Net: info.Net, Node: "s7"})
	if code != 404 {
		t.Fatalf("stale key: status %d, want 404", code)
	}
	code, _ = do(t, s, "POST", "/v1/delay", DelayRequest{Net: resp.Net, Node: "s7"})
	if code != 200 {
		t.Fatalf("new key: status %d, want 200", code)
	}
}

func TestEditNoopKeepsKey(t *testing.T) {
	s := newTestServer(t, Options{})
	info := register(t, s, balanced7)
	// Writing the stored value back is a no-op edit: same content, same key.
	code, raw := do(t, s, "POST", "/v1/edit", EditRequest{
		Net:   info.Net,
		Edits: []EditSpec{{Node: "s1", Elem: "R", Value: 25}},
		Node:  "s1",
	})
	if code != 200 {
		t.Fatalf("noop edit: status %d: %s", code, raw)
	}
	if resp := decodeAs[EditResponse](t, raw); resp.Net != info.Net {
		t.Fatalf("no-op edit changed the key: %s -> %s", info.Net, resp.Net)
	}
}

func TestBatchMixedItems(t *testing.T) {
	s := newTestServer(t, Options{})
	info := register(t, s, balanced7)
	unknown := strings.Repeat("ab", 32)
	code, raw := do(t, s, "POST", "/v1/batch", BatchRequest{
		Workers: 2,
		Items: []BatchItem{
			{Net: info.Net, Node: "s7"},
			{Net: info.Net}, // whole-tree
			{Net: unknown, Node: "s1"},
			{Tree: "bad", Node: "x"},
		},
	})
	if code != 200 {
		t.Fatalf("batch: status %d: %s", code, raw)
	}
	resp := decodeAs[BatchResponse](t, raw)
	if resp.Failed != 2 || len(resp.Results) != 4 {
		t.Fatalf("batch response = %+v", resp)
	}
	if resp.Results[0].Result == nil || resp.Results[0].Result.Node != "s7" {
		t.Fatalf("item 0 = %+v", resp.Results[0])
	}
	if len(resp.Results[1].Nodes) != 7 {
		t.Fatalf("item 1: got %d nodes, want 7", len(resp.Results[1].Nodes))
	}
	if resp.Results[2].Error == nil || resp.Results[2].Error.Class != "not_found" || resp.Results[2].Error.Status != 404 {
		t.Fatalf("item 2 = %+v", resp.Results[2])
	}
	if resp.Results[3].Error == nil || resp.Results[3].Error.Class != "parse" {
		t.Fatalf("item 3 = %+v", resp.Results[3])
	}
}

func TestBatchNegativeWorkersRejectedByEngine(t *testing.T) {
	s := newTestServer(t, Options{})
	info := register(t, s, balanced7)
	code, raw := do(t, s, "POST", "/v1/batch", BatchRequest{
		Workers: -3,
		Items:   []BatchItem{{Net: info.Net, Node: "s7"}, {Net: info.Net, Node: "s1"}},
	})
	if code != 200 {
		t.Fatalf("batch: status %d: %s", code, raw)
	}
	resp := decodeAs[BatchResponse](t, raw)
	if resp.Failed != 2 {
		t.Fatalf("want both items limit-rejected, got %+v", resp)
	}
	for i, r := range resp.Results {
		if r.Error == nil || r.Error.Class != "limit" || r.Error.Status != 413 {
			t.Fatalf("item %d = %+v, want limit/413", i, r)
		}
	}
}

// TestStatusMatrixOverTheWire drives every deterministically reachable
// guard-class→HTTP-status pair through real requests, mirroring the
// exhaustive unit matrix in internal/guard.
func TestStatusMatrixOverTheWire(t *testing.T) {
	s := newTestServer(t, Options{
		Limits:        guard.Limits{MaxSections: 8},
		MaxEdits:      4,
		MaxBatchItems: 4,
	})
	info := register(t, s, balanced7)
	bigTree := func() string {
		var b strings.Builder
		parent := "-"
		for i := 0; i < 9; i++ {
			fmt.Fprintf(&b, "n%d %s 1 1n 1f\n", i, parent)
			parent = fmt.Sprintf("n%d", i)
		}
		return b.String()
	}()

	cases := []struct {
		name       string
		method     string
		path       string
		body       any
		wantStatus int
		wantClass  string
	}{
		{"parse_bad_tree", "POST", "/v1/delay", DelayRequest{Tree: "not a tree", Node: "x"}, 400, "parse"},
		{"topology_unknown_parent", "POST", "/v1/delay", DelayRequest{Tree: "a zz 1 1n 1f", Node: "a"}, 422, "topology"},
		{"limit_sections", "POST", "/v1/analyze", AnalyzeRequest{Tree: bigTree}, 413, "limit"},
		{"limit_edits", "POST", "/v1/edit", EditRequest{Net: info.Net, Node: "s1", Edits: make([]EditSpec, 5)}, 413, "limit"},
		{"limit_batch_items", "POST", "/v1/batch", BatchRequest{Items: make([]BatchItem, 5)}, 413, "limit"},
		{"not_found_net", "POST", "/v1/delay", DelayRequest{Net: strings.Repeat("00", 32), Node: "x"}, 404, "not_found"},
		{"not_found_node", "POST", "/v1/delay", DelayRequest{Net: info.Net, Node: "nope"}, 404, "not_found"},
		{"method_not_allowed", "GET", "/v1/delay", nil, 405, "method"},
		{"bad_json", "POST", "/v1/delay", `{"node":`, 400, "parse"},
		{"unknown_field", "POST", "/v1/delay", `{"node":"s1","nope":1}`, 400, "parse"},
		{"trailing_data", "POST", "/v1/delay", `{"node":"s1"} {}`, 400, "parse"},
		{"both_tree_and_net", "POST", "/v1/delay", DelayRequest{Tree: balanced7, Net: info.Net, Node: "s1"}, 400, "parse"},
		{"neither_tree_nor_net", "POST", "/v1/delay", DelayRequest{Node: "s1"}, 400, "parse"},
		{"missing_node", "POST", "/v1/delay", DelayRequest{Net: info.Net}, 400, "parse"},
		{"bad_elem", "POST", "/v1/edit", EditRequest{Net: info.Net, Node: "s1", Edits: []EditSpec{{Node: "s1", Elem: "X", Value: 1}}}, 400, "parse"},
		{"negative_value", "POST", "/v1/edit", EditRequest{Net: info.Net, Node: "s1", Edits: []EditSpec{{Node: "s1", Elem: "R", Value: -1}}}, 422, "topology"},
		{"bad_fingerprint", "POST", "/v1/delay", DelayRequest{Net: "zz", Node: "s1"}, 400, "parse"},
		{"batch_empty", "POST", "/v1/batch", BatchRequest{}, 400, "parse"},
		// Σ C·R = 1e308 overflows the rise time ln 9·Σ C·R to +Inf.
		{"numeric_delay_overflow", "POST", "/v1/delay", DelayRequest{Tree: "a - 1e200 0 1e108", Node: "a"}, 422, "numeric"},
		{"numeric_analyze_overflow", "POST", "/v1/analyze", AnalyzeRequest{Tree: "a - 1e200 0 1e108"}, 422, "numeric"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, raw := do(t, s, c.method, c.path, c.body)
			if code != c.wantStatus {
				t.Fatalf("status %d, want %d: %s", code, c.wantStatus, raw)
			}
			er := decodeAs[ErrorResponse](t, raw)
			if er.Error.Class != c.wantClass || er.Error.Status != c.wantStatus || er.Error.Message == "" {
				t.Fatalf("error body = %+v, want class %q status %d", er.Error, c.wantClass, c.wantStatus)
			}
		})
	}
}

func TestBodyTooLargeIsLimit413(t *testing.T) {
	// MaxBytesReader only triggers through a real HTTP server; httptest
	// recorder requests don't enforce it identically, so go over the wire.
	s := newTestServer(t, Options{MaxBodyBytes: 256})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body, _ := json.Marshal(DelayRequest{Tree: balanced7 + strings.Repeat("# pad\n", 100), Node: "s1"})
	resp, err := srv.Client().Post(srv.URL+"/v1/delay", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 413 {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Class != "limit" {
		t.Fatalf("class = %q, want limit", er.Error.Class)
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	s := newTestServer(t, Options{})
	info := register(t, s, balanced7)
	if code, _ := do(t, s, "GET", "/healthz", nil); code != 200 {
		t.Fatalf("healthz before drain: %d", code)
	}
	s.Drain()
	code, raw := do(t, s, "GET", "/healthz", nil)
	if code != 503 {
		t.Fatalf("healthz during drain: %d", code)
	}
	if h := decodeAs[HealthResponse](t, raw); h.Status != "draining" {
		t.Fatalf("health body = %+v", h)
	}
	code, raw = do(t, s, "POST", "/v1/delay", DelayRequest{Net: info.Net, Node: "s1"})
	if code != 503 {
		t.Fatalf("delay during drain: %d: %s", code, raw)
	}
	if er := decodeAs[ErrorResponse](t, raw); er.Error.Class != "draining" {
		t.Fatalf("error body = %+v", er.Error)
	}
}

func TestQueuedRequestTimesOut504(t *testing.T) {
	s := newTestServer(t, Options{MaxInflight: 1, RequestTimeout: 20 * time.Millisecond})
	register(t, s, balanced7)
	// Occupy the single worker slot so the request queues, then let its
	// deadline fire while it waits.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	code, raw := do(t, s, "POST", "/v1/delay", DelayRequest{Tree: balanced7, Node: "s1"})
	if code != 504 {
		t.Fatalf("status %d, want 504: %s", code, raw)
	}
	if er := decodeAs[ErrorResponse](t, raw); er.Error.Class != "canceled" {
		t.Fatalf("error body = %+v", er.Error)
	}
}

func TestRegistryListingEndpoint(t *testing.T) {
	s := newTestServer(t, Options{RegistryEntries: 2})
	register(t, s, balanced7)
	register(t, s, "a - 1 1n 1f\n")
	code, raw := do(t, s, "GET", "/v1/nets", nil)
	if code != 200 {
		t.Fatalf("list: status %d", code)
	}
	resp := decodeAs[RegistryResponse](t, raw)
	if resp.Resident != 2 || resp.Capacity != 2 || len(resp.Nets) != 2 {
		t.Fatalf("listing = %+v", resp)
	}
	// Most recently used first.
	if resp.Nets[0].Sections != 1 || resp.Nets[1].Sections != 7 {
		t.Fatalf("MRU order wrong: %+v", resp.Nets)
	}
}

func TestLRUEvictionOverTheWire(t *testing.T) {
	s := newTestServer(t, Options{RegistryEntries: 1})
	a := register(t, s, balanced7)
	register(t, s, "a - 1 1n 1f\n") // evicts balanced7
	code, _ := do(t, s, "POST", "/v1/delay", DelayRequest{Net: a.Net, Node: "s1"})
	if code != 404 {
		t.Fatalf("evicted net: status %d, want 404", code)
	}
}

func TestMetricsEndpointExposesServerSeries(t *testing.T) {
	s := newTestServer(t, Options{})
	register(t, s, balanced7)
	code, raw := do(t, s, "GET", "/metrics", nil)
	if code != 200 {
		t.Fatalf("metrics: status %d", code)
	}
	for _, want := range []string{"eed_server_requests_total", "eed_registry_nets", "eed_server_request_latency_ns"} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("exposition missing %s", want)
		}
	}
}

func TestUnknownPathIs404(t *testing.T) {
	s := newTestServer(t, Options{})
	if code, _ := do(t, s, "GET", "/v1/nope", nil); code != 404 {
		t.Fatal("unknown path should 404")
	}
}

// TestConcurrentMixedTraffic hammers one server with every endpoint from
// many goroutines — the -race proof that the handler spine, registry and
// sessions compose safely under concurrent load.
func TestConcurrentMixedTraffic(t *testing.T) {
	s := newTestServer(t, Options{MaxInflight: 8})
	info := register(t, s, balanced7)
	// Each editor owns a private net so edits do not re-key the shared
	// one out from under the readers. Register them here: t.Fatal is only
	// legal on the test goroutine.
	private := make([]NetInfo, 16)
	for w := range private {
		private[w] = register(t, s, fmt.Sprintf("p - %d 1n 50f\nq p 25 1n 50f\n", 10+w))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cur := private[w].Net
			for i := 0; i < 40; i++ {
				if ctx.Err() != nil {
					return
				}
				var code int
				var raw []byte
				switch i % 4 {
				case 0:
					code, raw = do(t, s, "POST", "/v1/delay", DelayRequest{Net: info.Net, Node: "s7"})
				case 1:
					code, raw = do(t, s, "POST", "/v1/analyze", AnalyzeRequest{Net: info.Net})
				case 2:
					code, raw = do(t, s, "POST", "/v1/edit", EditRequest{
						Net: cur, Node: "q",
						Edits: []EditSpec{{Node: "q", Elem: "C", Value: float64(40+i%5) * 1e-15}},
					})
					if code == 200 {
						var er EditResponse
						if err := json.Unmarshal(raw, &er); err != nil {
							errCh <- fmt.Errorf("worker %d op %d: bad edit body: %v", w, i, err)
							return
						}
						cur = er.Net
					}
				default:
					code, raw = do(t, s, "POST", "/v1/batch", BatchRequest{Items: []BatchItem{{Net: info.Net, Node: "s1"}}})
				}
				if code != 200 {
					errCh <- fmt.Errorf("worker %d op %d: status %d: %s", w, i, code, raw)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if s.Inflight() != 0 {
		t.Fatalf("inflight = %d after all requests returned", s.Inflight())
	}
}
