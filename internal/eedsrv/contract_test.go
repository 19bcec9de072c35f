package eedsrv

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"eedtree/internal/core"
	"eedtree/internal/engine"
	"eedtree/internal/guard"
	"eedtree/internal/rlctree"
)

var updateGolden = flag.Bool("update", false, "rewrite the contract goldens from live responses")

// contractFixture is one golden API exchange: the request is authored by
// hand, the expected response is recorded by `go test -update` and
// reviewed like any other diff. Fixtures run in filename order against
// one server, so stateful sequences (register → query by fingerprint →
// edit → stale key) are part of the contract.
type contractFixture struct {
	Comment string          `json:"comment,omitempty"`
	Method  string          `json:"method"`
	Path    string          `json:"path"`
	Body    json.RawMessage `json:"body,omitempty"`     // JSON request body
	RawBody string          `json:"raw_body,omitempty"` // malformed-body cases
	Status  int             `json:"status"`
	Want    json.RawMessage `json:"response"`
}

// newContractServer returns the fixed configuration every contract
// fixture runs against. Changing these values changes the goldens. The
// clock is pinned 42 seconds past boot so the healthz fixture's
// uptime_seconds is deterministic.
func newContractServer(t *testing.T) *Server {
	t.Helper()
	s := newTestServer(t, Options{
		Engine:          engine.New(engine.Options{Workers: 1}),
		RegistryEntries: 4,
		MaxEdits:        4,
		MaxBatchItems:   4,
		Limits:          guard.Limits{MaxSections: 8},
	})
	base := s.start
	s.clock = func() time.Time { return base.Add(42 * time.Second) }
	return s
}

// contractSubs computes the fingerprint placeholders fixture requests
// use: ${balanced7} is the shared net's key, ${edited} the key after the
// 05_edit fixture's edit (s4.C = 8e-14), ${single} the key of the
// one-section net "a - 25 1n 50f" of fixtures 27–29. Keeping fixtures
// symbolic means they survive fingerprint-algorithm changes; the
// recorded goldens hold the literal hex and are regenerated with
// -update. ${goversion} is the running toolchain's runtime.Version() —
// unlike the fingerprints it is substituted in recorded responses too
// (and reverse-substituted on -update), because CI may run a different
// Go release than the machine that recorded the golden.
func contractSubs(t *testing.T) *strings.Replacer {
	t.Helper()
	parse := func(text string) *rlctree.Tree {
		tree, err := rlctree.Parse(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	base := parse(balanced7)
	edited := parse(balanced7)
	if err := edited.Section("s4").SetC(80e-15); err != nil {
		t.Fatal(err)
	}
	return strings.NewReplacer(
		"${balanced7}", fingerprintHex(base.Fingerprint()),
		"${edited}", fingerprintHex(edited.Fingerprint()),
		"${single}", fingerprintHex(parse("a - 25 1n 50f\n").Fingerprint()),
		"${goversion}", runtime.Version(),
	)
}

func TestContractGoldens(t *testing.T) {
	dir := filepath.Join("testdata", "contract")
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no contract fixtures under %s (err=%v)", dir, err)
	}
	sort.Strings(names)

	s := newContractServer(t)
	subs := contractSubs(t)
	for _, name := range names {
		name := name
		t.Run(strings.TrimSuffix(filepath.Base(name), ".json"), func(t *testing.T) {
			raw, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			var fx contractFixture
			if err := json.Unmarshal(raw, &fx); err != nil {
				t.Fatalf("bad fixture: %v", err)
			}
			var body any
			switch {
			case fx.RawBody != "":
				body = fx.RawBody
			case len(fx.Body) > 0:
				body = json.RawMessage(subs.Replace(string(fx.Body)))
			}
			status, got := do(t, s, fx.Method, fx.Path, body)

			if *updateGolden {
				fx.Status = status
				// Reverse-substitute the toolchain version so the recorded
				// golden is portable across Go releases.
				recorded := strings.ReplaceAll(string(bytes.TrimSpace(got)), runtime.Version(), "${goversion}")
				fx.Want = json.RawMessage(recorded)
				out, err := json.MarshalIndent(fx, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(name, append(out, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}

			if status != fx.Status {
				t.Fatalf("status %d, want %d\nresponse: %s", status, fx.Status, got)
			}
			var gotV, wantV any
			if err := json.Unmarshal(got, &gotV); err != nil {
				t.Fatalf("response is not JSON: %v\n%s", err, got)
			}
			if err := json.Unmarshal([]byte(subs.Replace(string(fx.Want))), &wantV); err != nil {
				t.Fatalf("golden response is not JSON (rerun with -update?): %v", err)
			}
			// DeepEqual over decoded JSON compares float64s exactly — the
			// goldens pin served numbers to the bit.
			if !reflect.DeepEqual(gotV, wantV) {
				t.Fatalf("response drifted from golden %s\ngot:  %s\nwant: %s", name, got, fx.Want)
			}
		})
	}
}

// bitEq reports exact bit equality, treating NaN as equal to NaN.
func bitEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkNodeBits compares one served NodeResult against the directly
// computed analysis, field by field, to the bit.
func checkNodeBits(t *testing.T, nr NodeResult, na core.NodeAnalysis) {
	t.Helper()
	if nr.Node != na.Section.Name() {
		t.Fatalf("node %q, want %q", nr.Node, na.Section.Name())
	}
	fields := []struct {
		name     string
		got, ref float64
	}{
		{"delay50", nr.Delay50, na.Delay50},
		{"rise", nr.Rise, na.RiseTime},
		{"overshoot", nr.Overshoot, na.Overshoot},
		{"elmore50", nr.Elmore50, na.ElmoreDelay50},
		{"elmore_rise", nr.ElmoreRise, na.ElmoreRiseTime},
	}
	for _, f := range fields {
		if !bitEq(f.got, f.ref) {
			t.Fatalf("node %s: %s = %x, direct core bits %x (%.17g vs %.17g)",
				nr.Node, f.name, math.Float64bits(f.got), math.Float64bits(f.ref), f.got, f.ref)
		}
	}
	if settleDefined := !math.IsNaN(na.SettlingTime) && !math.IsInf(na.SettlingTime, 0); settleDefined != (nr.Settle != nil) {
		t.Fatalf("node %s: settle presence mismatch (direct %v, served %v)", nr.Node, na.SettlingTime, nr.Settle)
	} else if settleDefined && !bitEq(*nr.Settle, na.SettlingTime) {
		t.Fatalf("node %s: settle bits differ", nr.Node)
	}
	if !na.Model.RCOnly() {
		if nr.Zeta == nil || !bitEq(*nr.Zeta, na.Model.Zeta()) {
			t.Fatalf("node %s: zeta mismatch", nr.Node)
		}
		if nr.OmegaN == nil || !bitEq(*nr.OmegaN, na.Model.OmegaN()) {
			t.Fatalf("node %s: omega_n mismatch", nr.Node)
		}
	}
	if nr.Degraded != na.Degraded || nr.DegradedClass != na.DegradedClass {
		t.Fatalf("node %s: degraded flags drifted", nr.Node)
	}
}

// TestServedDelaysBitIdenticalToCore is the acceptance criterion made
// executable: numbers that crossed the HTTP/JSON boundary must decode to
// exactly the float64 bits a direct in-process core.AnalyzeTreeCtx
// produces — no rounding, no formatting loss, warm or cold.
func TestServedDelaysBitIdenticalToCore(t *testing.T) {
	trees := map[string]string{
		"balanced7": balanced7,
		"line64":    lineTree(64),
		// Zero inductance throughout: every node degrades to the RC model,
		// so the omitted-field convention is exercised too.
		"rc_fallback": "a - 100 0 1p\nb a 150 0 2p\n",
	}
	s := newTestServer(t, Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for name, text := range trees {
		t.Run(name, func(t *testing.T) {
			tree, err := rlctree.Parse(strings.NewReader(text))
			if err != nil {
				t.Fatal(err)
			}
			direct, err := core.AnalyzeTreeCtx(context.Background(), tree)
			if err != nil {
				t.Fatal(err)
			}

			// Whole-tree sweep over real HTTP, twice: the first answer comes
			// off a cold session, the second off the warm resident — both
			// must carry identical bits.
			for pass, req := range []any{AnalyzeRequest{Tree: text}, AnalyzeRequest{Tree: text}} {
				body, _ := json.Marshal(req)
				hres, err := srv.Client().Post(srv.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				var resp AnalyzeResponse
				err = json.NewDecoder(hres.Body).Decode(&resp)
				hres.Body.Close()
				if err != nil || hres.StatusCode != 200 {
					t.Fatalf("pass %d: status %d err %v", pass, hres.StatusCode, err)
				}
				if len(resp.Nodes) != len(direct) {
					t.Fatalf("pass %d: %d nodes, want %d", pass, len(resp.Nodes), len(direct))
				}
				for i, nr := range resp.Nodes {
					checkNodeBits(t, nr, direct[i])
				}
			}

			// Point queries per node through /v1/delay (the O(depth)
			// incremental path) must agree with the whole-tree sweep too.
			for _, na := range direct {
				body, _ := json.Marshal(DelayRequest{Tree: text, Node: na.Section.Name()})
				hres, err := srv.Client().Post(srv.URL+"/v1/delay", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				var resp DelayResponse
				err = json.NewDecoder(hres.Body).Decode(&resp)
				hres.Body.Close()
				if err != nil || hres.StatusCode != 200 {
					t.Fatalf("delay %s: status %d err %v", na.Section.Name(), hres.StatusCode, err)
				}
				checkNodeBits(t, resp.Result, na)
			}
		})
	}
}

// TestEditedNetBitIdenticalToCore drives edits through /v1/edit and
// checks the served result against a from-scratch analysis of an
// equivalently edited tree.
func TestEditedNetBitIdenticalToCore(t *testing.T) {
	s := newTestServer(t, Options{})
	info := register(t, s, balanced7)

	edits := []EditSpec{{Node: "s4", Elem: "C", Value: 90e-15}, {Node: "s1", Elem: "R", Value: 40}}
	code, raw := do(t, s, "POST", "/v1/edit", EditRequest{Net: info.Net, Edits: edits, Node: "s7"})
	if code != 200 {
		t.Fatalf("edit: status %d: %s", code, raw)
	}
	resp := decodeAs[EditResponse](t, raw)

	// The reference: parse the same text, apply the same edits, analyze
	// from scratch.
	tree, err := rlctree.Parse(strings.NewReader(balanced7))
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Section("s4").SetC(90e-15); err != nil {
		t.Fatal(err)
	}
	if err := tree.Section("s1").SetR(40); err != nil {
		t.Fatal(err)
	}
	if got, want := resp.Net, fingerprintHex(tree.Fingerprint()); got != want {
		t.Fatalf("served fingerprint %s, reference %s", got, want)
	}
	direct, err := core.AnalyzeTreeCtx(context.Background(), tree)
	if err != nil {
		t.Fatal(err)
	}
	for _, na := range direct {
		if na.Section.Name() == "s7" {
			checkNodeBits(t, resp.Result, na)
			return
		}
	}
	t.Fatal("reference analysis has no s7")
}

// lineTree renders an n-section line in the tree text format, the same
// shape as examples/nets/line64.tree.
func lineTree(n int) string {
	var b strings.Builder
	parent := "-"
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "w%d %s 25 1n 50f\n", i, parent)
		parent = fmt.Sprintf("w%d", i)
	}
	return b.String()
}
