package eedsrv

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eedtree/internal/core"
	"eedtree/internal/engine"
	"eedtree/internal/faultinj"
	"eedtree/internal/guard"
	"eedtree/internal/obs"
	"eedtree/internal/rlctree"
)

// Defaults for the zero Options value.
const (
	DefaultMaxInflight    = 64
	DefaultMaxBodyBytes   = 8 << 20 // 8 MiB — a ~100k-section tree in text form
	DefaultMaxBatchItems  = 1024
	DefaultMaxEdits       = 1024
	DefaultRequestTimeout = 30 * time.Second
	DefaultRetryAfter     = 1 * time.Second
)

// Options configures a Server. The zero value is a usable production
// default.
type Options struct {
	// Engine executes the resident nets' whole-tree sweeps and counts, in
	// its CacheStats, the /v1/analyze calls answered from a session's held
	// result; nil means a fresh default engine (GOMAXPROCS workers).
	Engine *engine.Engine
	// RegistryEntries bounds the resident-net pool (LRU-evicted).
	// 0 means engine.DefaultRegistryEntries.
	RegistryEntries int
	// MaxInflight bounds concurrently executing analysis requests; excess
	// requests queue, connection-aware (a caller that disconnects while
	// queued is dropped without running). 0 means DefaultMaxInflight.
	MaxInflight int
	// MaxBodyBytes bounds one request body. 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxBatchItems bounds the items of one /v1/batch request.
	// 0 means DefaultMaxBatchItems.
	MaxBatchItems int
	// MaxEdits bounds the edits of one /v1/edit request. 0 means
	// DefaultMaxEdits.
	MaxEdits int
	// RequestTimeout bounds one request's wall time; past it the analysis
	// is canceled and the client gets 504. 0 means DefaultRequestTimeout;
	// negative means no limit.
	RequestTimeout time.Duration
	// Limits bounds the inline trees the server parses (zero fields get
	// guard defaults).
	Limits guard.Limits
	// RetryAfter is the Retry-After header value attached to responses
	// that reject a request before executing it (503 draining, 504
	// queue-timeout) — the server-suggested backoff for well-behaved
	// clients. 0 means DefaultRetryAfter; sub-second values round up to 1s
	// (the header speaks whole seconds).
	RetryAfter time.Duration
	// MountPprof exposes net/http/pprof under /debug/pprof/ on the
	// server's own mux. Off by default.
	MountPprof bool
	// EnableFaults mounts the test-only /v1/faults admin endpoint, which
	// arms and disarms internal/faultinj plans at runtime. Never enable it
	// on a production instance: it lets any caller panic handlers and
	// flush the registry.
	EnableFaults bool
	// Flight receives one wide event per analysis request. nil means the
	// process-wide obs.DefaultFlight() recorder.
	Flight *obs.FlightRecorder
	// DebugRequests mounts the live flight-recorder endpoints
	// (/v1/debug/requests, /v1/debug/slow). Off by default: without it
	// the endpoints 404. Requests are recorded either way.
	DebugRequests bool
	// Logger, when set, gets one structured record per analysis request
	// (request ID, route, status, class, timings) plus drain lifecycle
	// events. nil disables request logging.
	Logger *slog.Logger
}

// Server is the delay-as-a-service HTTP handler set. It is safe for
// concurrent use; one Server is meant to serve a whole process.
type Server struct {
	opts      Options
	reg       *engine.Registry
	sem       chan struct{}
	mux       *http.ServeMux
	retrySecs int // Retry-After value for pre-execution rejections

	flight *obs.FlightRecorder
	clock  func() time.Time // swappable for deterministic contract goldens
	start  time.Time
	bootID string // per-process nonce prefixing generated request IDs
	reqSeq atomic.Uint64

	draining atomic.Bool
	inflight atomic.Int64
}

// Correlation headers. The server echoes the request ID on every
// analysis response; eedclient sends both so server-side wide events
// line up with client retries.
const (
	HeaderRequestID = "X-Eed-Request-Id"
	HeaderAttempt   = "X-Eed-Attempt"
)

// maxRequestIDLen bounds a client-supplied request ID; longer (or
// non-token) values are replaced by a server-generated ID rather than
// rejected, so correlation is best-effort and never a failure mode.
const maxRequestIDLen = 64

// Server-level metrics. Per-endpoint series share one family via the
// single-label convention of internal/obs.
var (
	mInflight = obs.Default().Gauge("eed_server_inflight",
		"Analysis requests currently executing.")
	mQueued = obs.Default().Gauge("eed_server_queued",
		"Analysis requests waiting for a worker-pool slot.")
	mRejectedDrain = obs.Default().Counter("eed_server_rejected_draining_total",
		"Requests rejected because the server is draining.")
	// One unlabeled histogram for all endpoints: the exposition writer
	// supports single labels on counters/gauges only (histogram bucket
	// series would collide across label values).
	mLatency = obs.Default().Histogram("eed_server_request_latency_ns",
		"Analysis-request wall time (queue wait included), nanoseconds.",
		obs.DefaultLatencyBuckets)
)

func endpointCounter(endpoint string) *obs.Counter {
	return obs.Default().Counter(obs.Label("eed_server_requests_total", "endpoint", endpoint),
		"Requests served, by endpoint.")
}

// endpointRequests returns a handle on endpoint's request counter that
// looks the counter up on first use only: a request pays one atomic load
// instead of a label render and a registry lookup, and a route nobody has
// called still has no series in the exposition.
func endpointRequests(endpoint string) func() *obs.Counter {
	return sync.OnceValue(func() *obs.Counter { return endpointCounter(endpoint) })
}

func endpointErrors(class string) *obs.Counter {
	return obs.Default().Counter(obs.Label("eed_server_errors_total", "class", class),
		"Request failures, by error class.")
}

// New returns a Server with its routes mounted.
func New(opts Options) *Server {
	if opts.Engine == nil {
		opts.Engine = engine.New(engine.Options{})
	}
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = DefaultMaxInflight
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if opts.MaxBatchItems <= 0 {
		opts.MaxBatchItems = DefaultMaxBatchItems
	}
	if opts.MaxEdits <= 0 {
		opts.MaxEdits = DefaultMaxEdits
	}
	if opts.RequestTimeout == 0 {
		opts.RequestTimeout = DefaultRequestTimeout
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = DefaultRetryAfter
	}
	opts.Limits = opts.Limits.WithDefaults()
	if opts.Flight == nil {
		opts.Flight = obs.DefaultFlight()
	}
	s := &Server{
		opts:      opts,
		reg:       engine.NewRegistry(opts.Engine, opts.RegistryEntries),
		sem:       make(chan struct{}, opts.MaxInflight),
		mux:       http.NewServeMux(),
		retrySecs: int((opts.RetryAfter + time.Second - 1) / time.Second),
		flight:    opts.Flight,
		clock:     time.Now,
		bootID:    newBootID(),
	}
	s.start = s.clock()
	s.mux.HandleFunc("/v1/nets", s.netsHandler())
	s.mux.HandleFunc("/v1/delay", s.analysis("/v1/delay", s.handleDelay))
	s.mux.HandleFunc("/v1/analyze", s.analysis("/v1/analyze", s.handleAnalyze))
	s.mux.HandleFunc("/v1/batch", s.analysis("/v1/batch", s.handleBatch))
	s.mux.HandleFunc("/v1/edit", s.analysis("/v1/edit", s.handleEdit))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.Handle("/metrics", obs.Default().Handler())
	if opts.EnableFaults {
		s.mux.HandleFunc("/v1/faults", s.handleFaults)
	}
	if opts.DebugRequests {
		s.mux.HandleFunc("/v1/debug/requests", s.handleDebugRequests)
		s.mux.HandleFunc("/v1/debug/slow", s.handleDebugSlow)
	}
	if opts.MountPprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the server's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the resident-net pool (tests, ops introspection).
func (s *Server) Registry() *engine.Registry { return s.reg }

// Drain flips the server into drain mode: /healthz answers 503 (so load
// balancers stop routing here) and new analysis requests are rejected
// with a draining error, while requests already executing run to
// completion — pair it with http.Server.Shutdown, which waits for them.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Inflight returns the number of analysis requests currently executing.
func (s *Server) Inflight() int { return int(s.inflight.Load()) }

// writeJSON writes v with the given status. A 200 is committed by the
// encoder's single Write, which happens only once v has encoded: a
// result that JSON cannot carry (a ±Inf or NaN float) is answered with
// a numeric-class 422 instead of an empty 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	var uv *json.UnsupportedValueError
	if err := json.NewEncoder(w).Encode(v); errors.As(err, &uv) && status == http.StatusOK {
		writeError(w, guard.Newf(guard.ErrNumeric, "eedsrv", "result not representable in JSON: %v", err))
	}
}

// writeError renders err as the JSON error body with its mapped status.
// A daemon-level error carrying a Retry-After hint (drain, queue timeout
// — rejections issued before the request executed) gets the header, so
// well-behaved clients back off instead of hammering; its presence is
// also the client's proof the request never ran, which is what makes
// retrying a non-idempotent edit safe.
func writeError(w http.ResponseWriter, err error) {
	var de *apiErr
	if errors.As(err, &de) && de.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(de.retryAfter))
	}
	ae := toAPIError(err)
	if ew, ok := w.(*eventWriter); ok {
		ew.ev.SetClass(ae.Class)
		ew.ev.SetErr(err)
	}
	endpointErrors(ae.Class).Inc()
	writeJSON(w, ae.Status, ErrorResponse{Error: ae})
}

// eventWriter pairs the response writer with the request's wide event:
// the first WriteHeader (or implicit 200) lands in the event, and
// writeError annotates the guard class through it, so the middleware's
// single deferred Record sees the final status whichever path wrote it.
type eventWriter struct {
	http.ResponseWriter
	ev    *obs.WideEvent
	wrote bool
}

func (w *eventWriter) WriteHeader(status int) {
	if !w.wrote {
		w.wrote = true
		w.ev.SetStatus(status)
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *eventWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.wrote = true
		w.ev.SetStatus(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

// newBootID returns the per-process nonce that prefixes generated
// request IDs, so IDs from two daemon generations never collide in logs.
func newBootID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "eed"
	}
	return hex.EncodeToString(b[:])
}

// validRequestID bounds what the server honors from clients: a short
// token of [A-Za-z0-9._-]. Anything else gets a generated ID instead.
func validRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// requestID returns the correlation ID for r — the client's, when it
// sent a well-formed one, else a fresh server-generated ID — plus the
// client's 1-based retry attempt (0 when absent).
func (s *Server) requestID(r *http.Request) (string, int) {
	id := r.Header.Get(HeaderRequestID)
	if !validRequestID(id) {
		id = fmt.Sprintf("%s-%06d", s.bootID, s.reqSeq.Add(1))
	}
	attempt, err := strconv.Atoi(r.Header.Get(HeaderAttempt))
	if err != nil || attempt < 0 {
		attempt = 0
	}
	return id, attempt
}

// analysis wraps an analysis handler with the service spine: POST-only,
// drain rejection, the connection-aware worker-pool bound, the request
// timeout, body-size cap, panic recovery, per-endpoint metrics, and the
// flight recorder's single wide event per request. The semaphore is the
// "connection-aware worker pool": at most MaxInflight requests execute,
// excess requests wait in line holding no resources, and a queued client
// that gives up (closed connection, canceled context) leaves the queue
// without ever running.
//
// Every exit path — success, guard-mapped error, panic-recovered 500,
// drain 503, queue-timeout 504, even a connection abort — funnels
// through the one deferred Record below, so each request emits exactly
// one wide event and one log record, correlated by X-Eed-Request-Id with
// the client's retries.
func (s *Server) analysis(endpoint string, h func(ctx context.Context, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	requests := endpointRequests(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := s.clock()
		requests().Inc()
		rid, attempt := s.requestID(r)
		w.Header().Set(HeaderRequestID, rid)
		ev := obs.WideEvent{StartNS: t0.UnixNano(), RequestID: rid, Attempt: attempt, Route: endpoint}
		ew := &eventWriter{ResponseWriter: w, ev: &ev}
		ran := false // the request held a worker slot
		defer func() {
			p := recover()
			if p != nil && p != http.ErrAbortHandler {
				// Handler panic: answer 500 on the still-open connection
				// (unless the handler already wrote headers) instead of
				// tearing it down, and record it like any internal error.
				if ew.wrote {
					ev.SetClass("internal")
					ev.Err = fmt.Sprintf("handler panic after response started: %v", p)
				} else {
					writeError(ew, &apiErr{status: http.StatusInternalServerError, class: "internal",
						message: fmt.Sprintf("handler panic: %v", p)})
				}
			}
			if p == http.ErrAbortHandler {
				// Deliberate connection abort (srv.conn_drop): the event
				// records it, then the panic continues so net/http still
				// severs the transport.
				ev.SetClass("aborted")
				ev.Err = "connection aborted (http.ErrAbortHandler)"
			}
			ev.TotalNS = int64(s.clock().Sub(t0))
			if ran {
				mLatency.Observe(ev.TotalNS)
			}
			s.flight.Record(&ev, s.opts.Logger)
			if p == http.ErrAbortHandler {
				panic(p)
			}
		}()
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", "POST")
			writeError(ew, &apiErr{status: http.StatusMethodNotAllowed, class: "method",
				message: endpoint + " accepts POST only"})
			return
		}
		if s.draining.Load() {
			mRejectedDrain.Inc()
			writeError(ew, &apiErr{status: http.StatusServiceUnavailable, class: "draining",
				message:    "server is draining; retry against another instance",
				retryAfter: s.retrySecs})
			return
		}
		ctx := r.Context()
		if s.opts.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
			defer cancel()
		}
		mQueued.Inc()
		qt0 := s.clock()
		select {
		case s.sem <- struct{}{}:
			ev.QueueNS = int64(s.clock().Sub(qt0))
			mQueued.Dec()
		case <-ctx.Done():
			ev.QueueNS = int64(s.clock().Sub(qt0))
			mQueued.Dec()
			// The deadline fired while the request was still queued — it
			// never executed, so the 504 carries Retry-After (edit-safe).
			writeError(ew, &apiErr{status: http.StatusGatewayTimeout, class: "canceled",
				message:    "request deadline expired while queued for a worker slot: " + context.Cause(ctx).Error(),
				retryAfter: s.retrySecs})
			return
		}
		s.inflight.Add(1)
		ran = true
		mInflight.Inc()
		defer func() {
			<-s.sem
			s.inflight.Add(-1)
			mInflight.Dec()
		}()
		// Fault-injection points, armed only under an active faultinj plan
		// (one atomic load each otherwise). They run after the slot
		// acquisition so a stall occupies a worker slot exactly the way a
		// slow analysis would.
		if faultinj.On() {
			if faultinj.Fire(faultinj.SrvPanic) {
				// Recovered by the middleware's deferred recover above:
				// the client gets a 500, the flight recorder one event.
				panic("faultinj: injected handler panic (srv.panic)")
			}
			if faultinj.Fire(faultinj.SrvConnDrop) {
				panic(http.ErrAbortHandler)
			}
			if faultinj.Fire(faultinj.SrvQueueTimeout) {
				writeError(ew, &apiErr{status: http.StatusGatewayTimeout, class: "canceled",
					message:    "injected queue timeout (srv.queue_timeout)",
					retryAfter: s.retrySecs})
				return
			}
			if d, ok := faultinj.Stall(faultinj.SrvStall); ok {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					writeError(ew, guard.New(guard.ErrCanceled, "eedsrv", context.Cause(ctx)))
					return
				}
			}
		}
		ctx = obs.WithEvent(ctx, &ev)
		r.Body = http.MaxBytesReader(ew, r.Body, s.opts.MaxBodyBytes)
		h(ctx, ew, r)
	}
}

// resolveNet materializes the net a request names: an inline tree is
// parsed under the server's limits and registered (warm for the next
// call), a fingerprint is looked up among the resident nets. Exactly one
// of the two must be given. It runs as the "resolve" stage; the request's
// wide event (carried by ctx, if any) is annotated with the resolved
// fingerprint and the registry's "hit" or "miss".
func (s *Server) resolveNet(ctx context.Context, treeText, netHex string) (*engine.Resident, error) {
	st := obs.StartStage(ctx, "resolve", nil)
	defer st.End()
	ev := obs.EventFrom(ctx)
	switch {
	case treeText != "" && netHex != "":
		return nil, guard.Newf(guard.ErrParse, "eedsrv", `request names both "tree" and "net"; give exactly one`)
	case treeText != "":
		tree, err := rlctree.ParseLimits(strings.NewReader(treeText), s.opts.Limits)
		if err != nil {
			return nil, err
		}
		res, hit, err := s.reg.PutInfo(tree)
		if err != nil {
			return nil, err
		}
		ev.SetNet(fingerprintHex(tree.Fingerprint()))
		ev.SetCache(registryOutcome(hit))
		return res, nil
	case netHex != "":
		fp, err := parseFingerprint(netHex)
		if err != nil {
			return nil, err
		}
		ev.SetNet(netHex)
		res, ok := s.reg.Lookup(fp)
		ev.SetCache(registryOutcome(ok))
		if !ok {
			return nil, errNotFound("net %s is not resident (never registered, evicted, or re-keyed by edits)", netHex)
		}
		return res, nil
	}
	return nil, guard.Newf(guard.ErrParse, "eedsrv", `request names no net: give "tree" (inline text) or "net" (fingerprint)`)
}

// registryOutcome names a registry lookup's result.
func registryOutcome(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// parseFingerprint decodes the 64-hex-digit wire form of a fingerprint.
func parseFingerprint(s string) (rlctree.Fingerprint, error) {
	var fp rlctree.Fingerprint
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(fp) {
		return fp, guard.Newf(guard.ErrParse, "eedsrv", "malformed net fingerprint %q (want %d hex digits)", s, 2*len(fp))
	}
	copy(fp[:], b)
	return fp, nil
}

// fingerprintHex is the wire form of a fingerprint.
func fingerprintHex(fp rlctree.Fingerprint) string { return hex.EncodeToString(fp[:]) }

// annotateDegraded records a degraded analysis result on the request's
// wide event (first degradation wins — one reason is enough evidence).
func annotateDegraded(ctx context.Context, na core.NodeAnalysis) {
	if !na.Degraded {
		return
	}
	if ev := obs.EventFrom(ctx); ev != nil && ev.Degraded == "" {
		ev.SetDegraded(na.DegradedClass)
	}
}

// netInfo snapshots a resident's descriptive fields under its lock.
func netInfo(res *engine.Resident) NetInfo {
	var info NetInfo
	res.Do(func(_ *engine.Session, tr *rlctree.Tree) error {
		info = NetInfo{Net: fingerprintHex(tr.Fingerprint()), Sections: tr.Len(), Depth: tr.Depth()}
		return nil
	})
	return info
}

// netsHandler serves POST /v1/nets (register) and GET /v1/nets (list).
func (s *Server) netsHandler() http.HandlerFunc {
	register := s.analysis("/v1/nets", s.handleRegister)
	requests := endpointRequests("/v1/nets")
	return func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			register(w, r)
		case http.MethodGet:
			requests().Inc()
			st := s.reg.Stats()
			resp := RegistryResponse{
				Capacity:  st.Capacity,
				Resident:  st.Resident,
				Hits:      st.Hits,
				Misses:    st.Misses,
				Evictions: st.Evictions,
				Nets:      []NetInfo{},
			}
			for _, res := range s.reg.Nets() {
				resp.Nets = append(resp.Nets, netInfo(res))
			}
			writeJSON(w, http.StatusOK, resp)
		default:
			w.Header().Set("Allow", "GET, POST")
			writeError(w, &apiErr{status: http.StatusMethodNotAllowed, class: "method",
				message: "/v1/nets accepts GET and POST"})
		}
	}
}

func (s *Server) handleRegister(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := decodeRequest(r.Body, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Tree == "" {
		writeError(w, guard.Newf(guard.ErrParse, "eedsrv", `"tree" is required`))
		return
	}
	res, err := s.resolveNet(ctx, req.Tree, "")
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, netInfo(res))
}

func (s *Server) handleDelay(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var req DelayRequest
	if err := decodeRequest(r.Body, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Node == "" {
		writeError(w, guard.Newf(guard.ErrParse, "eedsrv", `"node" is required`))
		return
	}
	res, err := s.resolveNet(ctx, req.Tree, req.Net)
	if err != nil {
		writeError(w, err)
		return
	}
	var resp DelayResponse
	err = res.Do(func(sess *engine.Session, tr *rlctree.Tree) error {
		sink := tr.Section(req.Node)
		if sink == nil {
			return errNotFound("net has no node %q", req.Node)
		}
		st := obs.StartStage(ctx, "analyze", nil)
		na, err := sess.AnalyzeAt(sink)
		st.End()
		if err != nil {
			return err
		}
		annotateDegraded(ctx, na)
		resp = DelayResponse{Net: fingerprintHex(tr.Fingerprint()), Result: NodeResultOf(na)}
		return nil
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAnalyze(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if err := decodeRequest(r.Body, &req); err != nil {
		writeError(w, err)
		return
	}
	res, err := s.resolveNet(ctx, req.Tree, req.Net)
	if err != nil {
		writeError(w, err)
		return
	}
	var resp AnalyzeResponse
	err = res.Do(func(sess *engine.Session, tr *rlctree.Tree) error {
		st := obs.StartStage(ctx, "analyze", nil)
		analyses, err := sess.Analyze(ctx)
		st.End()
		if err != nil {
			return err
		}
		resp = AnalyzeResponse{Net: fingerprintHex(tr.Fingerprint()), Nodes: make([]NodeResult, 0, len(analyses))}
		for _, na := range analyses {
			annotateDegraded(ctx, na)
			resp.Nodes = append(resp.Nodes, NodeResultOf(na))
		}
		return nil
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleEdit(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var req EditRequest
	if err := decodeRequest(r.Body, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Node == "" {
		writeError(w, guard.Newf(guard.ErrParse, "eedsrv", `"node" is required`))
		return
	}
	if len(req.Edits) > s.opts.MaxEdits {
		writeError(w, guard.Newf(guard.ErrLimit, "eedsrv", "%d edits exceed the per-request limit %d", len(req.Edits), s.opts.MaxEdits))
		return
	}
	// Pre-validate the whole batch: element names and values are checked
	// before anything is applied, so a malformed request mutates nothing.
	elems := make([]rlctree.Elem, len(req.Edits))
	for i, e := range req.Edits {
		elem, err := parseElem(e.Elem)
		if err != nil {
			writeError(w, err)
			return
		}
		elems[i] = elem
		if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) || e.Value < 0 {
			writeError(w, guard.Newf(guard.ErrTopology, "eedsrv", "edit %d: invalid %s = %g (must be non-negative finite)", i, elem, e.Value))
			return
		}
	}
	res, err := s.resolveNet(ctx, req.Tree, req.Net)
	if err != nil {
		writeError(w, err)
		return
	}
	var resp EditResponse
	err = res.Do(func(sess *engine.Session, tr *rlctree.Tree) error {
		// Whatever happens below, the registry key must track the content.
		defer func() {
			resp.Net = fingerprintHex(s.reg.Rekey(res))
			obs.EventFrom(ctx).SetNet(resp.Net)
		}()
		edits := make([]engine.SectionEdit, len(req.Edits))
		old := make([]float64, len(req.Edits))
		for i, e := range req.Edits {
			sec := tr.Section(e.Node)
			if sec == nil {
				return errNotFound("net has no node %q (edit %d)", e.Node, i)
			}
			edits[i] = engine.SectionEdit{Section: sec, Elem: elems[i], Value: e.Value}
			old[i] = [...]float64{sec.R(), sec.L(), sec.C()}[elems[i]]
		}
		sink := tr.Section(req.Node)
		if sink == nil {
			return errNotFound("net has no node %q", req.Node)
		}
		st := obs.StartStage(ctx, "edit", nil)
		na, err := sess.EditAndAnalyze(ctx, edits, sink)
		st.End()
		if err == nil {
			resp.Result = NodeResultOf(na)
			err = checkRepresentable(resp.Result)
		}
		if err != nil {
			// An answer that cannot be served applies nothing: put the
			// values back, last edit first, so the net keeps its content
			// and its key. They were stored before, so each restore holds.
			for i := len(edits) - 1; i >= 0; i-- {
				_ = sess.Set(edits[i].Section, edits[i].Elem, old[i])
			}
			return err
		}
		annotateDegraded(ctx, na)
		resp.Applied = len(edits)
		return nil
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeRequest(r.Body, &req); err != nil {
		writeError(w, err)
		return
	}
	if len(req.Items) == 0 {
		writeError(w, guard.Newf(guard.ErrParse, "eedsrv", `"items" must be non-empty`))
		return
	}
	if len(req.Items) > s.opts.MaxBatchItems {
		writeError(w, guard.Newf(guard.ErrLimit, "eedsrv", "%d items exceed the per-request limit %d", len(req.Items), s.opts.MaxBatchItems))
		return
	}
	results := make([]BatchResult, len(req.Items))
	// The batch stage times the fan-out as a whole. Items run
	// concurrently: they detach the request's wide event so per-item
	// annotations cannot race on it.
	st := obs.StartStage(ctx, "batch", nil)
	errs := engine.Batch(obs.DetachEvent(ctx), len(req.Items), req.Workers, func(ctx context.Context, i int) error {
		item := req.Items[i]
		res, err := s.resolveNet(ctx, item.Tree, item.Net)
		if err != nil {
			return err
		}
		return res.Do(func(sess *engine.Session, tr *rlctree.Tree) error {
			results[i].Net = fingerprintHex(tr.Fingerprint())
			if item.Node == "" {
				analyses, err := sess.Analyze(ctx)
				if err != nil {
					return err
				}
				nodes := make([]NodeResult, 0, len(analyses))
				for _, na := range analyses {
					nr := NodeResultOf(na)
					if err := checkRepresentable(nr); err != nil {
						return err
					}
					nodes = append(nodes, nr)
				}
				results[i].Nodes = nodes
				return nil
			}
			sink := tr.Section(item.Node)
			if sink == nil {
				return errNotFound("net has no node %q", item.Node)
			}
			na, err := sess.AnalyzeAt(sink)
			if err != nil {
				return err
			}
			nr := NodeResultOf(na)
			if err := checkRepresentable(nr); err != nil {
				return err
			}
			results[i].Result = &nr
			return nil
		})
	})
	st.End()
	resp := BatchResponse{Results: results}
	for i, err := range errs {
		if err != nil {
			ae := toAPIError(err)
			results[i] = BatchResult{Error: &ae}
			resp.Failed++
		}
	}
	if resp.Failed > 0 {
		ev := obs.EventFrom(ctx)
		ev.SetClass("partial")
		ev.SetErr(fmt.Errorf("%d of %d batch items failed", resp.Failed, len(req.Items)))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, &apiErr{status: http.StatusMethodNotAllowed, class: "method",
			message: "/healthz accepts GET and HEAD"})
		return
	}
	resp := HealthResponse{Status: "ok", Inflight: s.Inflight(),
		ResidentNets:  s.reg.Stats().Resident,
		UptimeSeconds: int64(s.clock().Sub(s.start) / time.Second),
		GoVersion:     runtime.Version()}
	status := http.StatusOK
	if s.draining.Load() {
		// Draining keeps the JSON body: a load balancer (and the chaos
		// harness) can tell a draining instance from a dead one.
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}
