// Package eedclient is the typed Go client for the eedd delay service.
// It layers the resilience the bare HTTP API leaves to callers:
//
//   - per-attempt deadlines, so one stalled response cannot wedge a caller
//   - capped exponential backoff with full jitter on retryable failures
//   - a consecutive-failure circuit breaker with half-open probing, so a
//     dead server costs one probe per cooldown instead of a retry storm
//   - Retry-After-aware edit retries: a non-idempotent /v1/edit is retried
//     only when the failure proves the request never executed — the
//     response carried Retry-After (the server's pre-execution rejection
//     marker) or the connection failed before the request was sent
//
// Analysis requests (delay, analyze, batch, register, listing) are
// idempotent — re-running one re-reads the same answer — so they retry on
// any retryable status (429, 500, 502, 503, 504) or transport error.
package eedclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"eedtree/internal/eedsrv"
	"eedtree/internal/obs"
)

// Wire types are the server's own: the client adds behavior, not schema.
type (
	NetInfo          = eedsrv.NetInfo
	DelayRequest     = eedsrv.DelayRequest
	DelayResponse    = eedsrv.DelayResponse
	AnalyzeRequest   = eedsrv.AnalyzeRequest
	AnalyzeResponse  = eedsrv.AnalyzeResponse
	EditSpec         = eedsrv.EditSpec
	EditRequest      = eedsrv.EditRequest
	EditResponse     = eedsrv.EditResponse
	BatchItem        = eedsrv.BatchItem
	BatchRequest     = eedsrv.BatchRequest
	BatchResponse    = eedsrv.BatchResponse
	RegistryResponse = eedsrv.RegistryResponse
	HealthResponse   = eedsrv.HealthResponse
	FaultsResponse   = eedsrv.FaultsResponse
	NodeResult       = eedsrv.NodeResult
	APIError         = eedsrv.APIError
)

// Defaults for zero-valued Options fields.
const (
	DefaultRequestTimeout   = 10 * time.Second
	DefaultMaxRetries       = 4
	DefaultBackoffBase      = 25 * time.Millisecond
	DefaultBackoffCap       = 2 * time.Second
	DefaultBreakerThreshold = 8
	DefaultBreakerCooldown  = 2 * time.Second
)

// ErrBreakerOpen is returned (wrapped in *Error) when the circuit breaker
// refuses a request without sending it. The caller's request never left
// the process, so even edits are safe to retry after the cooldown.
var ErrBreakerOpen = errors.New("eedclient: circuit breaker open")

// Options configures a Client. The zero value of every field means "use
// the default"; BaseURL is the only required field.
type Options struct {
	// BaseURL roots every request, e.g. "http://127.0.0.1:8417".
	BaseURL string
	// RequestTimeout bounds each attempt, not the whole retry loop — the
	// caller's ctx bounds that.
	RequestTimeout time.Duration
	// MaxRetries is the number of re-attempts after the first try.
	// Negative disables retries entirely.
	MaxRetries int
	// BackoffBase and BackoffCap shape the full-jitter backoff: attempt k
	// sleeps rand(0, min(Cap, Base<<k)).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// BreakerThreshold opens the breaker after that many consecutive
	// server-side failures (5xx, 429, transport errors). Negative
	// disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before allowing
	// a half-open probe.
	BreakerCooldown time.Duration
	// Seed fixes the jitter sequence for reproducible runs; 0 seeds from
	// the clock.
	Seed int64
}

// Error is the client's typed failure: what operation, what the server
// said (when it said anything), and how hard the client tried.
type Error struct {
	Op         string // "delay", "edit", ...
	Status     int    // HTTP status; 0 when the failure was transport-level
	Class      string // server error class ("parse", "draining", ...) when present
	Message    string // server error message when present
	Attempts   int    // total attempts made (>= 1 unless the breaker refused)
	RetryAfter bool   // the (final) response carried Retry-After: it never executed
	RequestID  string // correlation ID sent with every attempt of this operation
	Err        error  // underlying transport error or sentinel
}

func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "eedclient: %s failed after %d attempt(s)", e.Op, e.Attempts)
	if e.Status != 0 {
		fmt.Fprintf(&b, ": status %d", e.Status)
		if e.Class != "" {
			fmt.Fprintf(&b, " (%s)", e.Class)
		}
		if e.Message != "" {
			b.WriteString(": " + e.Message)
		}
	}
	if e.Err != nil {
		b.WriteString(": " + e.Err.Error())
	}
	return b.String()
}

func (e *Error) Unwrap() error { return e.Err }

// Stats is a snapshot of the client's lifetime counters.
type Stats struct {
	Requests     uint64 // operations attempted (not counting retries)
	Retries      uint64 // re-attempts after a retryable failure
	BreakerTrips uint64 // closed -> open transitions
	BreakerDrops uint64 // requests refused while open
}

// Client is a resilient eedd client. It is safe for concurrent use.
type Client struct {
	base    string
	httpc   *http.Client
	opts    Options
	breaker *breaker

	mu        sync.Mutex
	rng       *rand.Rand
	stat      Stats
	lastFault *Error // most recent server-side failure, for breaker refusals
	lastReqID string // most recent operation's correlation ID
}

var (
	mRetries      = obs.Default().Counter("eed_client_retries_total", "client re-attempts after retryable failures")
	mBreakerState = obs.Default().Gauge("eed_client_breaker_state", "circuit breaker state (0 closed, 1 open, 2 half-open)")
)

// New builds a Client. The only error is a missing or unparseable BaseURL.
func New(opts Options) (*Client, error) {
	base := strings.TrimRight(opts.BaseURL, "/")
	if base == "" {
		return nil, errors.New("eedclient: Options.BaseURL is required")
	}
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		return nil, fmt.Errorf("eedclient: BaseURL %q lacks an http(s) scheme", opts.BaseURL)
	}
	if opts.RequestTimeout == 0 {
		opts.RequestTimeout = DefaultRequestTimeout
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = DefaultMaxRetries
	}
	if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = DefaultBackoffBase
	}
	if opts.BackoffCap <= 0 {
		opts.BackoffCap = DefaultBackoffCap
	}
	if opts.BreakerThreshold == 0 {
		opts.BreakerThreshold = DefaultBreakerThreshold
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = DefaultBreakerCooldown
	}
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	c := &Client{
		base: base,
		// A connection pool of its own: clients sharing the process-wide
		// http.DefaultTransport would share its two idle connections per
		// host, so concurrent callers would keep dialing.
		httpc: &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()},
		opts:  opts,
		rng:   rand.New(rand.NewSource(seed)),
	}
	if opts.BreakerThreshold > 0 {
		c.breaker = newBreaker(opts.BreakerThreshold, opts.BreakerCooldown)
	}
	return c, nil
}

// Register registers a tree and warms it in the service's registry.
// Idempotent: the same content always maps to the same fingerprint.
func (c *Client) Register(ctx context.Context, tree string) (NetInfo, error) {
	var out NetInfo
	err := c.do(ctx, "register", http.MethodPost, "/v1/nets", eedsrv.RegisterRequest{Tree: tree}, &out, true)
	return out, err
}

// Delay asks for one sink's characterization. Idempotent.
func (c *Client) Delay(ctx context.Context, req DelayRequest) (DelayResponse, error) {
	var out DelayResponse
	err := c.do(ctx, "delay", http.MethodPost, "/v1/delay", req, &out, true)
	return out, err
}

// Analyze asks for the whole-tree sweep. Idempotent.
func (c *Client) Analyze(ctx context.Context, req AnalyzeRequest) (AnalyzeResponse, error) {
	var out AnalyzeResponse
	err := c.do(ctx, "analyze", http.MethodPost, "/v1/analyze", req, &out, true)
	return out, err
}

// Batch submits a multi-item analysis batch. Idempotent (analysis only).
func (c *Client) Batch(ctx context.Context, req BatchRequest) (BatchResponse, error) {
	var out BatchResponse
	err := c.do(ctx, "batch", http.MethodPost, "/v1/batch", req, &out, true)
	return out, err
}

// Edit applies element edits and re-queries — NOT idempotent: replaying
// an applied edit re-keys the net a second time. The client retries an
// edit only on failures that prove the request never executed: a dial
// error (the request never left this process) or a response carrying
// Retry-After (the server's pre-execution rejection marker).
func (c *Client) Edit(ctx context.Context, req EditRequest) (EditResponse, error) {
	var out EditResponse
	err := c.do(ctx, "edit", http.MethodPost, "/v1/edit", req, &out, false)
	return out, err
}

// Nets lists the resident nets. Idempotent.
func (c *Client) Nets(ctx context.Context) (RegistryResponse, error) {
	var out RegistryResponse
	err := c.do(ctx, "nets", http.MethodGet, "/v1/nets", nil, &out, true)
	return out, err
}

// Health probes /healthz with a single attempt, bypassing both the
// breaker and the retry loop — a health probe that retried or got
// breaker-refused would measure the client, not the server. The body is
// parsed on 200 ("ok") and 503 ("draining") alike.
func (c *Client) Health(ctx context.Context) (HealthResponse, error) {
	var out HealthResponse
	ctx, cancel := context.WithTimeout(ctx, c.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return out, &Error{Op: "health", Attempts: 1, Err: err}
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return out, &Error{Op: "health", Attempts: 1, Err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return out, &Error{Op: "health", Status: resp.StatusCode, Attempts: 1, Err: err}
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return out, &Error{Op: "health", Status: resp.StatusCode, Attempts: 1}
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return out, &Error{Op: "health", Status: resp.StatusCode, Attempts: 1, Err: err}
	}
	return out, nil
}

// SetFaults arms (or, with an empty spec, disarms) the server's
// test-only fault plan via /v1/faults. Single attempt, no breaker: the
// chaos harness calls this precisely when the server is misbehaving.
func (c *Client) SetFaults(ctx context.Context, spec string) (FaultsResponse, error) {
	var out FaultsResponse
	ctx, cancel := context.WithTimeout(ctx, c.opts.RequestTimeout)
	defer cancel()
	body, err := json.Marshal(eedsrv.FaultsRequest{Spec: spec})
	if err != nil {
		return out, &Error{Op: "faults", Attempts: 1, Err: err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/faults", bytes.NewReader(body))
	if err != nil {
		return out, &Error{Op: "faults", Attempts: 1, Err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpc.Do(req)
	if err != nil {
		return out, &Error{Op: "faults", Attempts: 1, Err: err}
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		e := &Error{Op: "faults", Status: resp.StatusCode, Attempts: 1}
		fillServerError(e, raw)
		return out, e
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return out, &Error{Op: "faults", Status: resp.StatusCode, Attempts: 1, Err: err}
	}
	return out, nil
}

// BreakerState reports "closed", "open", "half-open" or "disabled".
func (c *Client) BreakerState() string {
	if c.breaker == nil {
		return "disabled"
	}
	return c.breaker.stateName()
}

// Stats snapshots the client's lifetime counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stat
	if c.breaker != nil {
		s.BreakerTrips = c.breaker.trips()
	}
	return s
}

// retryableStatus reports whether an HTTP status is worth re-attempting
// at all: transient server-side conditions, never 4xx client faults.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusBadGateway, http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// serverFaultStatus reports whether a status counts against the breaker:
// the server (not the request) is in trouble.
func serverFaultStatus(code int) bool {
	return code >= 500 || code == http.StatusTooManyRequests
}

// sentBeforeFailure reports whether a transport error happened after the
// request could have reached the server. Dial failures provably did not:
// no connection, no request. Everything else (reset mid-body, EOF before
// status line) must be assumed sent.
func sentBeforeFailure(err error) bool {
	var op *net.OpError
	if errors.As(err, &op) && op.Op == "dial" {
		return false
	}
	return true
}

// do runs one operation through the retry loop. idempotent=false tightens
// the retry predicate to proven-unexecuted failures (see Edit).
func (c *Client) do(ctx context.Context, op, method, path string, in, out any, idempotent bool) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return &Error{Op: op, Err: err}
		}
	}
	// One correlation ID covers every attempt of this operation: the
	// server's flight recorder then shows retries as sibling events
	// sharing the ID, distinguished by the attempt counter.
	rid := c.newRequestID()
	c.mu.Lock()
	c.stat.Requests++
	c.lastReqID = rid
	c.mu.Unlock()

	for attempt := 0; ; attempt++ {
		if c.breaker != nil && !c.breaker.allow() {
			c.mu.Lock()
			c.stat.BreakerDrops++
			last := c.lastFault
			c.mu.Unlock()
			// A breaker refusal inherits the failure that opened it: the
			// caller sees why requests are being dropped.
			e := &Error{Op: op, Attempts: attempt, RequestID: rid, Err: ErrBreakerOpen}
			if last != nil {
				e.Status, e.Class, e.Message = last.Status, last.Class, last.Message
			}
			return e
		}
		e, retryAfterSecs := c.attempt(ctx, op, method, path, body, out, rid, attempt+1)
		if e == nil {
			return nil
		}
		e.Attempts = attempt + 1
		e.RequestID = rid
		if e.Status == 0 || serverFaultStatus(e.Status) {
			c.mu.Lock()
			c.lastFault = e
			c.mu.Unlock()
		}

		retryable := e.retryable(idempotent)
		if !retryable || attempt >= c.opts.MaxRetries || ctx.Err() != nil {
			return e
		}
		c.mu.Lock()
		c.stat.Retries++
		c.mu.Unlock()
		mRetries.Inc()
		if err := c.sleepBackoff(ctx, attempt, retryAfterSecs); err != nil {
			return e // caller's ctx fired while backing off: report the real failure
		}
	}
}

// retryable decides whether this failure may be re-attempted.
func (e *Error) retryable(idempotent bool) bool {
	if errors.Is(e.Err, ErrBreakerOpen) {
		return false
	}
	if e.Status == 0 {
		// Transport error. Idempotent ops always retry; edits only when
		// the request provably never left the process.
		return idempotent || !sentBeforeFailure(e.Err)
	}
	if !retryableStatus(e.Status) {
		return false
	}
	// Retry-After is the server's proof the request never executed, which
	// clears even a non-idempotent edit for retry.
	return idempotent || e.RetryAfter
}

// newRequestID draws a fresh correlation ID from the client's rng. The
// "c-" prefix marks client-minted IDs apart from server-assigned ones.
func (c *Client) newRequestID() string {
	c.mu.Lock()
	hi, lo := c.rng.Uint32(), c.rng.Uint32()
	c.mu.Unlock()
	return fmt.Sprintf("c-%08x%08x", hi, lo)
}

// LastRequestID reports the correlation ID of the most recently started
// operation (empty before the first). Harnesses use it to find their own
// requests in the server's /v1/debug/requests view.
func (c *Client) LastRequestID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastReqID
}

// attempt performs one HTTP round-trip. A nil *Error means success and
// out is populated. retryAfterSecs is -1 when no Retry-After was present.
// Every attempt carries the operation's correlation ID and its 1-based
// attempt number so the server can stitch retries together.
func (c *Client) attempt(ctx context.Context, op, method, path string, body []byte, out any, rid string, attempt int) (*Error, int) {
	actx, cancel := context.WithTimeout(ctx, c.opts.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.base+path, rd)
	if err != nil {
		return &Error{Op: op, Err: err}, -1
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(eedsrv.HeaderRequestID, rid)
	req.Header.Set(eedsrv.HeaderAttempt, strconv.Itoa(attempt))
	resp, err := c.httpc.Do(req)
	if err != nil {
		c.recordOutcome(false)
		return &Error{Op: op, Err: err}, -1
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		c.recordOutcome(false)
		return &Error{Op: op, Status: resp.StatusCode, Err: err}, -1
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		c.recordOutcome(true)
		if out != nil {
			if err := json.Unmarshal(raw, out); err != nil {
				return &Error{Op: op, Status: resp.StatusCode, Err: fmt.Errorf("decoding response: %w", err)}, -1
			}
		}
		return nil, -1
	}
	c.recordOutcome(!serverFaultStatus(resp.StatusCode))
	e := &Error{Op: op, Status: resp.StatusCode}
	fillServerError(e, raw)
	retryAfterSecs := -1
	if v := resp.Header.Get("Retry-After"); v != "" {
		e.RetryAfter = true
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			retryAfterSecs = n
		}
	}
	return e, retryAfterSecs
}

// fillServerError parses the service's error envelope into e, tolerating
// non-JSON bodies (proxies, panics mid-write).
func fillServerError(e *Error, raw []byte) {
	var er eedsrv.ErrorResponse
	if json.Unmarshal(raw, &er) == nil && er.Error.Class != "" {
		e.Class, e.Message = er.Error.Class, er.Error.Message
	}
}

func (c *Client) recordOutcome(ok bool) {
	if c.breaker == nil {
		return
	}
	c.breaker.record(ok)
}

// sleepBackoff waits before the next attempt. A Retry-After of 0 seconds
// means "retry immediately" (the server's whole-second rounding floor); a
// positive Retry-After overrides the jitter schedule up to the cap.
func (c *Client) sleepBackoff(ctx context.Context, attempt int, retryAfterSecs int) error {
	var d time.Duration
	switch {
	case retryAfterSecs == 0:
		return nil
	case retryAfterSecs > 0:
		d = time.Duration(retryAfterSecs) * time.Second
		if d > c.opts.BackoffCap {
			d = c.opts.BackoffCap
		}
	default:
		// Full jitter: rand(0, min(cap, base<<attempt)).
		ceil := c.opts.BackoffBase << uint(attempt)
		if ceil <= 0 || ceil > c.opts.BackoffCap {
			ceil = c.opts.BackoffCap
		}
		c.mu.Lock()
		d = time.Duration(c.rng.Int63n(int64(ceil) + 1))
		c.mu.Unlock()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}
