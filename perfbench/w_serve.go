package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"eedtree/internal/core"
	"eedtree/internal/eedclient"
	"eedtree/internal/eedsrv"
	"eedtree/internal/engine"
	"eedtree/internal/obs"
	"eedtree/internal/rlctree"
	"eedtree/perfbench/ref"
)

// serveMixed is the service path: an in-process eedsrv on a loopback
// listener with a resident set of nets, driven through eedclient by one
// closed-loop caller with retries off. A round is ten requests: one
// /v1/edit, a /v1/delay on the edited net by its new fingerprint, then
// in a seeded order one /v1/analyze and seven more delays on random
// sinks.
type serveMixed struct {
	rng     *rand.Rand
	eng     *engine.Engine
	srv     *eedsrv.Server
	handler http.Handler
	hs      *http.Server
	done    chan struct{}
	cl      *eedclient.Client
	nets    []*serveNet
	small   []int // the nets /v1/analyze goes to
	reqs    int64 // requests sent, to name a failing one
	rounds  int
	editBuf []eedsrv.EditSpec
	sums    ref.Sums

	// Set only while tracing: the tracer, and the caller's open span and
	// op, which the handler wrapper records as the parent of its span.
	trace   atomic.Pointer[tracer]
	curSpan atomic.Int64
	curOp   atomic.Int64
}

// serveNets is the resident set: 32 nets of 16–1024 sections, well
// inside the registry's default capacity, so nothing is evicted.
const serveNets = 32

// serveNet is one resident net and the caller's replica of it, which
// follows the caller's own edits.
type serveNet struct {
	names  []string
	base   *ref.Tree // values at registration; edits scale these
	tree   *ref.Tree // replica
	leaves []int32
	fp     string
	nodes  []ref.Node // reference analysis of the replica, unless dirty
	dirty  bool
}

func (s *serveMixed) refNodes(n *serveNet) []ref.Node {
	if n.dirty {
		n.nodes = ref.AnalyzeInto(n.tree, &s.sums, n.nodes)
		n.dirty = false
	}
	return n.nodes
}

func (s *serveMixed) setup(seed int64, _ string) error {
	ctx := context.Background()
	s.rng = rand.New(rand.NewSource(seed))
	s.eng = engine.New(engine.Options{})
	s.srv = eedsrv.New(eedsrv.Options{Engine: s.eng})
	s.handler = s.srv.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: http.HandlerFunc(s.serveHTTP)}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns ErrServerClosed on teardown
	}()
	s.cl, err = eedclient.New(eedclient.Options{BaseURL: "http://" + ln.Addr().String(), MaxRetries: -1, Seed: seed})
	if err != nil {
		return err
	}
	// The analyze set is the smallest two thirds of the nets: strata 0–20
	// of 32 on the log scale from 16 to 1024, all under 245 sections.
	sizes := stratified(s.rng, serveNets, 16, 1024)
	sorted := append([]int(nil), sizes...)
	sort.Ints(sorted)
	smallMax := sorted[2*serveNets/3-1]
	for i, size := range sizes {
		t := randomValues(s.rng, randomParents(s.rng, size), nil)
		info, err := s.cl.Register(ctx, string(treeText(t, "s")))
		if err != nil {
			return fmt.Errorf("register net %d: %w", i, err)
		}
		if info.Sections != size {
			return opErr("register net %d: %d sections, sent %d", i, info.Sections, size)
		}
		n := &serveNet{base: t.Clone(), tree: t, fp: info.Net, dirty: true}
		for k, leaf := range t.Leaves() {
			n.names = append(n.names, "s"+strconv.Itoa(k))
			if leaf {
				n.leaves = append(n.leaves, int32(k))
			}
		}
		s.nets = append(s.nets, n)
		if size <= smallMax && len(s.small) < 2*serveNets/3 {
			s.small = append(s.small, i)
		}
	}
	// Warm-up: one checked whole-net analysis per net.
	cc := &clientCaller{s: s}
	var lat []time.Duration
	for _, n := range s.nets {
		if err := s.doAnalyze(cc, n, &lat); err != nil {
			return err
		}
	}
	return nil
}

func (s *serveMixed) teardown() {
	if s.hs != nil {
		s.hs.Close()
		<-s.done
	}
}

// serveHTTP is the listener's handler: the server's own, wrapped in a
// span per request while tracing.
func (s *serveMixed) serveHTTP(w http.ResponseWriter, r *http.Request) {
	tr := s.trace.Load()
	if tr == nil {
		s.handler.ServeHTTP(w, r)
		return
	}
	name := "eedsrv.other"
	switch r.URL.Path {
	case "/v1/delay":
		name = "eedsrv.delay"
	case "/v1/analyze":
		name = "eedsrv.analyze"
	case "/v1/edit":
		name = "eedsrv.edit"
	}
	id := tr.begin(name, s.curSpan.Load(), s.curOp.Load())
	s.handler.ServeHTTP(w, r)
	tr.end(id)
}

func (s *serveMixed) round(lat *[]time.Duration) error {
	return s.roundWith(&clientCaller{s: s}, lat)
}

// roundWith runs one round of ten requests through c. The edited and the
// analyzed net go round-robin through their sets, whose costs differ by
// net size; the delays go to random nets.
func (s *serveMixed) roundWith(c caller, lat *[]time.Duration) error {
	edited := s.nets[s.rounds%len(s.nets)]
	analyzed := s.nets[s.small[s.rounds%len(s.small)]]
	s.rounds++
	kinds := [10]byte{'e', 'f', 'a', 'd', 'd', 'd', 'd', 'd', 'd', 'd'}
	rest := kinds[2:]
	s.rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	for _, k := range kinds {
		var err error
		switch k {
		case 'e':
			err = s.doEdit(c, edited, lat)
		case 'f':
			err = s.doDelay(c, edited, lat)
		case 'a':
			err = s.doAnalyze(c, analyzed, lat)
		default:
			err = s.doDelay(c, s.nets[s.rng.Intn(len(s.nets))], lat)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *serveMixed) doDelay(c caller, n *serveNet, lat *[]time.Duration) error {
	s.reqs++
	node := n.leaves[s.rng.Intn(len(n.leaves))]
	t0 := time.Now()
	got, fp, err := c.delay(n, node)
	*lat = append(*lat, time.Since(t0))
	if err != nil {
		return opErr("request %d (delay, net %s node %s): %v", s.reqs, short(n.fp), n.names[node], err)
	}
	if fp != n.fp {
		return opErr("request %d (delay): answered for net %s, asked %s", s.reqs, short(fp), short(n.fp))
	}
	return s.checkNode(n, node, got, false)
}

func (s *serveMixed) doAnalyze(c caller, n *serveNet, lat *[]time.Duration) error {
	s.reqs++
	t0 := time.Now()
	got, err := c.analyze(n)
	*lat = append(*lat, time.Since(t0))
	if err != nil {
		return opErr("request %d (analyze, net %s): %v", s.reqs, short(n.fp), err)
	}
	if len(got) != len(n.names) {
		return opErr("request %d (analyze): %d nodes, net has %d", s.reqs, len(got), len(n.names))
	}
	for i := range got {
		if err := s.checkNode(n, int32(i), got[i], true); err != nil {
			return err
		}
	}
	return nil
}

var (
	elemNames  = [3]string{"R", "L", "C"}
	elemByName = map[string]rlctree.Elem{"R": rlctree.ElemR, "L": rlctree.ElemL, "C": rlctree.ElemC}
)

// doEdit makes 1–4 value edits, each setting an element to its
// registered value times a factor in [0.5, 2], and queries a sink. The
// replica takes the same edits, and the net's new fingerprint is used
// from then on.
func (s *serveMixed) doEdit(c caller, n *serveNet, lat *[]time.Duration) error {
	s.reqs++
	edits := s.editBuf[:0]
	for j := 1 + s.rng.Intn(4); j > 0; j-- {
		sec := s.rng.Intn(n.tree.Len())
		elem := s.rng.Intn(3)
		f := 0.5 + 1.5*s.rng.Float64()
		vals := [3][]float64{n.tree.R, n.tree.L, n.tree.C}
		base := [3][]float64{n.base.R, n.base.L, n.base.C}
		v := base[elem][sec] * f
		vals[elem][sec] = v
		edits = append(edits, eedsrv.EditSpec{Node: n.names[sec], Elem: elemNames[elem], Value: v})
	}
	s.editBuf = edits
	n.dirty = true
	node := n.leaves[s.rng.Intn(len(n.leaves))]
	t0 := time.Now()
	got, fp, applied, err := c.edit(n, edits, node)
	*lat = append(*lat, time.Since(t0))
	if err != nil {
		return opErr("request %d (edit, net %s): %v", s.reqs, short(n.fp), err)
	}
	if applied != len(edits) || fp == n.fp || len(fp) != 64 {
		return opErr("request %d (edit): applied %d of %d edits, new fingerprint %q after %s",
			s.reqs, applied, len(edits), fp, short(n.fp))
	}
	n.fp = fp
	return s.checkNode(n, node, got, false)
}

// checkNode compares one served node with the replica's reference; an
// analyze answer must also carry the node's ζ and ω_n.
func (s *serveMixed) checkNode(n *serveNet, i int32, got eedsrv.NodeResult, full bool) error {
	want := s.refNodes(n)[i]
	ok := got.Node == n.names[i] && ref.Close(got.Delay50, want.Delay, 1e-9)
	if full {
		ok = ok && got.Zeta != nil && got.OmegaN != nil &&
			ref.Close(*got.Zeta, want.Zeta, 1e-9) && ref.Close(*got.OmegaN, want.OmegaN, 1e-9)
	}
	if !ok {
		return opErr("request %d: net %s node %s: served %+v, reference delay %g s, ζ %g, ω_n %g",
			s.reqs, short(n.fp), n.names[i], got, want.Delay, want.Zeta, want.OmegaN)
	}
	return nil
}

func short(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

// caller sends one request of each kind; the three implementations are
// the real client, the handler replayed without a network, and the
// engine calls the handler makes.
type caller interface {
	delay(n *serveNet, node int32) (eedsrv.NodeResult, string, error)
	analyze(n *serveNet) ([]eedsrv.NodeResult, error)
	edit(n *serveNet, edits []eedsrv.EditSpec, node int32) (eedsrv.NodeResult, string, int, error)
}

// clientCaller calls through eedclient, with a span per call while the
// workload is traced.
type clientCaller struct {
	s  *serveMixed
	tr *tracer
}

func (c *clientCaller) begin(name string) int64 {
	if c.tr == nil {
		return 0
	}
	id := c.tr.begin(name, 0, c.s.curOp.Add(1))
	c.s.curSpan.Store(id)
	return id
}

func (c *clientCaller) delay(n *serveNet, node int32) (eedsrv.NodeResult, string, error) {
	id := c.begin("eedclient.delay")
	resp, err := c.s.cl.Delay(context.Background(), eedclient.DelayRequest{Net: n.fp, Node: n.names[node]})
	c.tr.end(id)
	return resp.Result, resp.Net, err
}

func (c *clientCaller) analyze(n *serveNet) ([]eedsrv.NodeResult, error) {
	id := c.begin("eedclient.analyze")
	resp, err := c.s.cl.Analyze(context.Background(), eedclient.AnalyzeRequest{Net: n.fp})
	c.tr.end(id)
	return resp.Nodes, err
}

func (c *clientCaller) edit(n *serveNet, edits []eedsrv.EditSpec, node int32) (eedsrv.NodeResult, string, int, error) {
	id := c.begin("eedclient.edit")
	resp, err := c.s.cl.Edit(context.Background(), eedclient.EditRequest{Net: n.fp, Edits: edits, Node: n.names[node]})
	c.tr.end(id)
	return resp.Result, resp.Net, resp.Applied, err
}

// handlerCaller replays requests into the server's handler with a
// response recorder and no network, measuring what the handler
// allocates per request.
type handlerCaller struct {
	s            *serveMixed
	am           allocMeter
	bytes, calls uint64
}

func (c *handlerCaller) do(path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	n, _ := c.am.measure(func() { c.s.handler.ServeHTTP(rec, req) })
	c.bytes += n
	c.calls++
	if rec.Code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}

func (c *handlerCaller) delay(n *serveNet, node int32) (eedsrv.NodeResult, string, error) {
	var resp eedsrv.DelayResponse
	err := c.do("/v1/delay", eedsrv.DelayRequest{Net: n.fp, Node: n.names[node]}, &resp)
	return resp.Result, resp.Net, err
}

func (c *handlerCaller) analyze(n *serveNet) ([]eedsrv.NodeResult, error) {
	var resp eedsrv.AnalyzeResponse
	err := c.do("/v1/analyze", eedsrv.AnalyzeRequest{Net: n.fp}, &resp)
	return resp.Nodes, err
}

func (c *handlerCaller) edit(n *serveNet, edits []eedsrv.EditSpec, node int32) (eedsrv.NodeResult, string, int, error) {
	var resp eedsrv.EditResponse
	err := c.do("/v1/edit", eedsrv.EditRequest{Net: n.fp, Edits: edits, Node: n.names[node]}, &resp)
	return resp.Result, resp.Net, resp.Applied, err
}

// registryCaller replays the engine calls a handler makes, on the
// server's own registry: Registry.Lookup, then Resident.Do around the
// session call, and Registry.Rekey after an edit.
type registryCaller struct {
	s  *serveMixed
	tr *tracer
	op int64
}

func (c *registryCaller) lookup(fp string) (*engine.Resident, error) {
	var key rlctree.Fingerprint
	if b, err := hex.DecodeString(fp); err != nil || len(b) != len(key) {
		return nil, fmt.Errorf("bad fingerprint %q", fp)
	} else {
		copy(key[:], b)
	}
	res, ok := c.s.srv.Registry().Lookup(key)
	if !ok {
		return nil, fmt.Errorf("net %s is not resident", short(fp))
	}
	return res, nil
}

func (c *registryCaller) delay(n *serveNet, node int32) (eedsrv.NodeResult, string, error) {
	c.op++
	id := c.tr.begin("engine.delay_query", 0, c.op)
	var na core.NodeAnalysis
	res, err := c.lookup(n.fp)
	if err == nil {
		err = res.Do(func(sess *engine.Session, t *rlctree.Tree) error {
			var err error
			na, err = sess.AnalyzeAt(t.Section(n.names[node]))
			return err
		})
	}
	c.tr.end(id)
	if err != nil {
		return eedsrv.NodeResult{}, "", err
	}
	return eedsrv.NodeResultOf(na), n.fp, nil
}

func (c *registryCaller) analyze(n *serveNet) ([]eedsrv.NodeResult, error) {
	c.op++
	id := c.tr.begin("engine.analyze", 0, c.op)
	var nodes []core.NodeAnalysis
	res, err := c.lookup(n.fp)
	if err == nil {
		err = res.Do(func(sess *engine.Session, _ *rlctree.Tree) error {
			var err error
			nodes, err = sess.Analyze(context.Background())
			return err
		})
	}
	c.tr.end(id)
	if err != nil {
		return nil, err
	}
	out := make([]eedsrv.NodeResult, len(nodes))
	for i, na := range nodes {
		out[i] = eedsrv.NodeResultOf(na)
	}
	return out, nil
}

func (c *registryCaller) edit(n *serveNet, edits []eedsrv.EditSpec, node int32) (eedsrv.NodeResult, string, int, error) {
	c.op++
	id := c.tr.begin("engine.edit", 0, c.op)
	var na core.NodeAnalysis
	var fp rlctree.Fingerprint
	res, err := c.lookup(n.fp)
	if err == nil {
		err = res.Do(func(sess *engine.Session, t *rlctree.Tree) error {
			se := make([]engine.SectionEdit, len(edits))
			for i, e := range edits {
				se[i] = engine.SectionEdit{Section: t.Section(e.Node), Elem: elemByName[e.Elem], Value: e.Value}
			}
			var err error
			na, err = sess.EditAndAnalyze(context.Background(), se, t.Section(n.names[node]))
			rid := c.tr.begin("engine.rekey", id, c.op)
			fp = c.s.srv.Registry().Rekey(res)
			c.tr.end(rid)
			return err
		})
	}
	c.tr.end(id)
	if err != nil {
		return eedsrv.NodeResult{}, "", 0, err
	}
	return eedsrv.NodeResultOf(na), hex.EncodeToString(fp[:]), len(edits), nil
}

func (s *serveMixed) traced(tc *traceRun) error {
	tr := &tc.tr
	cs0 := s.eng.CacheStats()
	s.trace.Store(tr)
	cc := &clientCaller{s: s, tr: tr}
	var lat []time.Duration
	rate, err := timedRounds(tc.cfg.seconds, func() (int, error) {
		lat = lat[:0]
		err := s.roundWith(cc, &lat)
		return len(lat), err
	})
	s.trace.Store(nil)
	if err != nil {
		return err
	}
	cs1 := s.eng.CacheStats()
	hits, misses := float64(cs1.Hits-cs0.Hits), float64(cs1.Misses-cs0.Misses)
	if hits+misses > 0 {
		tc.layers["engine.cache_hit_ratio"] = hits / (hits + misses)
	}

	// Replays of the same request stream: into the handler with no
	// network, then through the engine calls the handler makes.
	hc := &handlerCaller{s: s}
	for i := 0; i < 200; i++ {
		if err := s.roundWith(hc, &lat); err != nil {
			return err
		}
	}
	rc := &registryCaller{s: s, tr: tr}
	for i := 0; i < 300; i++ {
		if err := s.roundWith(rc, &lat); err != nil {
			return err
		}
	}
	const records = 20000
	ev := obs.WideEvent{StartNS: time.Now().UnixNano(), RequestID: "perfbench-0000000001", Attempt: 1,
		Route: "/v1/delay", Net: s.nets[0].fp, Status: http.StatusOK, Cache: "hit", TotalNS: 150000}
	ev.AddStage("analyze", 5*time.Microsecond)
	fl := obs.DefaultFlight()
	id := tr.beginN("obs.record", 0, 0, records)
	for i := 0; i < records; i++ {
		e := ev
		fl.Record(&e, nil)
	}
	tr.end(id)

	st := tr.selfTimes()
	reqs := st["eedclient.delay"].calls + st["eedclient.analyze"].calls + st["eedclient.edit"].calls
	fmt.Println("serve_mixed ledger (client and handler spans from the traced requests; engine spans from the registry replay):")
	var client, handler layerStat
	for _, r := range []string{"delay", "analyze", "edit"} {
		tc.layers["eedclient."+r+"_us"] = tc.ledger(st, "eedclient."+r, reqs, "client self time: wire, net/http and JSON outside the handler")
		tc.layers["eedsrv."+r+"_us"] = tc.ledger(st, "eedsrv."+r, reqs, "handler")
		c, h := st["eedclient."+r], st["eedsrv."+r]
		client.calls, client.selfNS = client.calls+c.calls, client.selfNS+c.selfNS
		handler.calls, handler.selfNS = handler.calls+h.calls, handler.selfNS+h.selfNS
	}
	tc.layers["eedclient.wire_us"] = client.meanUS()
	fmt.Printf("  layer %-34s %8d calls %12.3f us/call  client time minus handler time, all routes\n", "eedclient.wire", client.calls, client.meanUS())
	for _, name := range []string{"engine.delay_query", "engine.analyze", "engine.edit", "engine.rekey"} {
		tc.layers[name+"_us"] = tc.ledger(st, name, 3000, "registry replay, 3000 requests")
	}
	tc.layers["obs.record_ns"] = st["obs.record"].meanUS() * 1e3
	tc.layers["eedsrv.req_kib"] = float64(hc.bytes) / 1024 / float64(hc.calls)
	fmt.Printf("  obs.record %.1f ns/event; handler replay %.3f KiB/request over %d requests; engine cache hit ratio %.3f\n",
		tc.layers["obs.record_ns"], tc.layers["eedsrv.req_kib"], hc.calls, tc.layers["engine.cache_hit_ratio"])
	layersUS := float64(client.selfNS+handler.selfNS) / 1e3 / float64(reqs)
	tc.reconcile("wall", tc.untraced.perOpUS(), layersUS, "eedclient self + eedsrv handler, per request")
	tc.overhead("requests", rate, float64(tc.untraced.ops)/tc.untraced.wall.Seconds())
	return nil
}
