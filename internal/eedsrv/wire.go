// Package eedsrv is the delay-as-a-service layer: an HTTP/JSON server
// over the analysis engine that holds parsed trees and warm incremental
// sessions resident (engine.Registry), so a point query on a known net is
// an O(depth) memory-speed operation instead of a process start, a parse
// and two O(n) sweeps.
//
// API surface (all analysis endpoints are POST with a JSON body):
//
//	POST /v1/nets     register a tree, warm its session   → NetInfo
//	POST /v1/delay    one sink's characterization         → DelayResponse
//	POST /v1/analyze  whole-tree sweep                    → AnalyzeResponse
//	POST /v1/batch    many independent items, bounded     → BatchResponse
//	POST /v1/edit     apply element edits, requery O(depth) → EditResponse
//	GET  /v1/nets     resident nets + registry counters   → RegistryResponse
//	GET  /healthz     liveness / drain state
//	GET  /metrics     Prometheus text exposition
//
// Analysis requests name their net either inline (`"tree"`: the
// internal/rlctree text format — parsed, registered and kept warm) or by
// content fingerprint (`"net"`: the 64-hex-digit key returned by an
// earlier call). Edits change the content and therefore the key; the
// EditResponse carries the new fingerprint the client queries with from
// then on (content addressing stays honest — see engine.Registry.Rekey).
//
// Errors are JSON bodies {"error":{"class","status","message"}} with the
// status from guard.HTTPStatus: parse→400, topology/numeric→422,
// limit→413, canceled→504, internal→500, plus the daemon-level classes
// not_found→404, method→405 and draining→503. Served numbers are
// bit-identical to a direct core.AnalyzeTreeCtx of the same tree: float64
// values survive the JSON round trip exactly (Go marshals
// shortest-round-trip decimals), which the contract tests enforce.
package eedsrv

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"

	"eedtree/internal/core"
	"eedtree/internal/guard"
	"eedtree/internal/obs"
	"eedtree/internal/rlctree"
)

// NetInfo describes one resident net.
type NetInfo struct {
	Net      string `json:"net"`      // content fingerprint, 64 hex digits
	Sections int    `json:"sections"` // tree size
	Depth    int    `json:"depth"`    // levels from input to deepest sink
}

// RegisterRequest is the body of POST /v1/nets.
type RegisterRequest struct {
	Tree string `json:"tree"` // internal/rlctree text format
}

// DelayRequest is the body of POST /v1/delay: one sink of one net.
type DelayRequest struct {
	Tree string `json:"tree,omitempty"` // inline tree text (registered + warmed)
	Net  string `json:"net,omitempty"`  // fingerprint of a resident net
	Node string `json:"node"`           // sink section name
}

// DelayResponse is the answer to POST /v1/delay.
type DelayResponse struct {
	Net    string     `json:"net"`
	Result NodeResult `json:"result"`
}

// AnalyzeRequest is the body of POST /v1/analyze: every node of one net.
type AnalyzeRequest struct {
	Tree string `json:"tree,omitempty"`
	Net  string `json:"net,omitempty"`
}

// AnalyzeResponse is the answer to POST /v1/analyze, one NodeResult per
// section in tree (topological) order.
type AnalyzeResponse struct {
	Net   string       `json:"net"`
	Nodes []NodeResult `json:"nodes"`
}

// EditSpec is one element edit: set Elem ("R", "L" or "C") of section
// Node to Value (SI units, non-negative finite).
type EditSpec struct {
	Node  string  `json:"node"`
	Elem  string  `json:"elem"`
	Value float64 `json:"value"`
}

// EditRequest is the body of POST /v1/edit: apply Edits to a net in
// order, then answer the characterization at Node — the service form of
// the optimizer inner loop, O(depth) on a warm session.
type EditRequest struct {
	Tree  string     `json:"tree,omitempty"`
	Net   string     `json:"net,omitempty"`
	Edits []EditSpec `json:"edits"`
	Node  string     `json:"node"`
}

// EditResponse is the answer to POST /v1/edit. Net is the net's NEW
// fingerprint — the edits changed the content, so they changed the key.
type EditResponse struct {
	Net     string     `json:"net"`
	Applied int        `json:"applied"` // edits applied (== len(request.edits) on success)
	Result  NodeResult `json:"result"`
}

// BatchItem is one unit of POST /v1/batch: a net and, optionally, one
// sink (empty Node = whole-tree sweep).
type BatchItem struct {
	Tree string `json:"tree,omitempty"`
	Net  string `json:"net,omitempty"`
	Node string `json:"node,omitempty"`
}

// BatchRequest is the body of POST /v1/batch. Workers bounds the
// concurrently processed items (0 = one per CPU; negative is rejected by
// the engine with a limit-classed error on every item).
type BatchRequest struct {
	Workers int         `json:"workers,omitempty"`
	Items   []BatchItem `json:"items"`
}

// BatchResult is the outcome of one batch item: exactly one of Error,
// Result (single-sink item) or Nodes (whole-tree item) is set.
type BatchResult struct {
	Net    string       `json:"net,omitempty"`
	Error  *APIError    `json:"error,omitempty"`
	Result *NodeResult  `json:"result,omitempty"`
	Nodes  []NodeResult `json:"nodes,omitempty"`
}

// BatchResponse is the answer to POST /v1/batch. The HTTP status is 200
// even when items failed — per-item isolation mirrors the CLI batch
// contract; clients dispatch on the per-item Error.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
	Failed  int           `json:"failed"`
}

// RegistryResponse is the answer to GET /v1/nets.
type RegistryResponse struct {
	Capacity  int       `json:"capacity"`
	Resident  int       `json:"resident"`
	Hits      uint64    `json:"hits"`
	Misses    uint64    `json:"misses"`
	Evictions uint64    `json:"evictions"`
	Nets      []NetInfo `json:"nets"`
}

// HealthResponse is the answer to GET /healthz: 200 while serving, 503
// while draining, always with this body — load balancers and harnesses
// distinguish "draining" (finite, let it finish) from "dead" (no answer
// at all) by the body, not just the status.
type HealthResponse struct {
	Status        string `json:"status"` // "ok" or "draining"
	Inflight      int    `json:"inflight"`
	ResidentNets  int    `json:"resident_nets"`
	UptimeSeconds int64  `json:"uptime_seconds"`
	GoVersion     string `json:"go_version"`
}

// DebugRequestsResponse is the answer to GET /v1/debug/requests (mounted
// only with Options.DebugRequests): the flight recorder's retained wide
// events matching the query, newest first.
type DebugRequestsResponse struct {
	Events []obs.WideEvent `json:"events"`
}

// DebugSlowResponse is the answer to GET /v1/debug/slow: the wide events
// of the bounded capture buffer of slow and failed requests, newest
// first.
type DebugSlowResponse struct {
	Captures []obs.WideEvent `json:"captures"`
}

// FaultsRequest is the body of POST /v1/faults (test-only admin): arm the
// spec's fault plan, or disarm everything when Spec is empty.
type FaultsRequest struct {
	Spec string `json:"spec"`
}

// FaultPointStatus is one armed rule's configuration and live counters.
type FaultPointStatus struct {
	Point string  `json:"point"`
	P     float64 `json:"p"`
	N     uint64  `json:"n,omitempty"`
	After uint64  `json:"after,omitempty"`
	D     string  `json:"d,omitempty"` // stall duration, time.Duration form
	Calls uint64  `json:"calls"`       // arrivals observed
	Fired uint64  `json:"fired"`       // faults injected
}

// FaultsResponse is the answer to GET and POST /v1/faults.
type FaultsResponse struct {
	Enabled bool               `json:"enabled"`
	Spec    string             `json:"spec,omitempty"` // canonical form
	Points  []FaultPointStatus `json:"points,omitempty"`
}

// NodeResult is the wire form of core.NodeAnalysis. Seconds throughout.
// Zeta and OmegaN are omitted for RC-only (degraded) models, Settle when
// the settling time is undefined — JSON has no Inf/NaN, and omission is
// the honest encoding of "this quantity does not exist for this node".
type NodeResult struct {
	Node          string   `json:"node"`
	Zeta          *float64 `json:"zeta,omitempty"`
	OmegaN        *float64 `json:"omega_n,omitempty"`
	Delay50       float64  `json:"delay50"`
	Rise          float64  `json:"rise"`
	Overshoot     float64  `json:"overshoot"`
	Settle        *float64 `json:"settle,omitempty"`
	Elmore50      float64  `json:"elmore50"`
	ElmoreRise    float64  `json:"elmore_rise"`
	Degraded      bool     `json:"degraded,omitempty"`
	DegradedClass string   `json:"degraded_class,omitempty"`
}

// NodeResultOf converts one analysis to its wire form. It is exported for
// correctness oracles (the chaos harness) that must render a direct
// core.AnalyzeTreeCtx result exactly the way the server would, so served
// floats can be compared bit for bit.
func NodeResultOf(na core.NodeAnalysis) NodeResult {
	nr := NodeResult{
		Node:          na.Section.Name(),
		Delay50:       na.Delay50,
		Rise:          na.RiseTime,
		Overshoot:     na.Overshoot,
		Elmore50:      na.ElmoreDelay50,
		ElmoreRise:    na.ElmoreRiseTime,
		Degraded:      na.Degraded,
		DegradedClass: na.DegradedClass,
	}
	if !na.Model.RCOnly() {
		if z := na.Model.Zeta(); !math.IsInf(z, 0) && !math.IsNaN(z) {
			nr.Zeta = &z
		}
		if w := na.Model.OmegaN(); !math.IsInf(w, 0) && !math.IsNaN(w) {
			nr.OmegaN = &w
		}
	}
	if s := na.SettlingTime; !math.IsNaN(s) && !math.IsInf(s, 0) {
		nr.Settle = &s
	}
	return nr
}

// checkRepresentable returns a numeric-class error when a plain float
// field of nr is ±Inf or NaN, which JSON cannot carry. A batch item
// checks its results with it, so that item fails alone instead of the
// whole response failing to encode; an edit checks its result, so that
// an answer it cannot serve applies nothing.
func checkRepresentable(nr NodeResult) error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"delay50", nr.Delay50}, {"rise", nr.Rise}, {"overshoot", nr.Overshoot}, {"elmore50", nr.Elmore50}, {"elmore_rise", nr.ElmoreRise}} {
		if math.IsInf(f.v, 0) || math.IsNaN(f.v) {
			return guard.Newf(guard.ErrNumeric, "eedsrv", "node %q: %s = %v is not representable in JSON", nr.Node, f.name, f.v)
		}
	}
	return nil
}

// APIError is the wire form of a failure; Class is a guard class name or
// one of the daemon-level classes ("not_found", "method", "draining").
type APIError struct {
	Class   string `json:"class"`
	Status  int    `json:"status"`
	Message string `json:"message"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error APIError `json:"error"`
}

// apiErr is a daemon-level error with a pinned status and class, for
// conditions the guard taxonomy does not cover (unknown net, unknown
// node, wrong method, drain).
type apiErr struct {
	status     int
	class      string
	message    string
	retryAfter int // Retry-After seconds; 0 = no header (see writeError)
}

func (e *apiErr) Error() string { return e.message }

func errNotFound(format string, args ...any) *apiErr {
	return &apiErr{status: http.StatusNotFound, class: "not_found", message: fmt.Sprintf(format, args...)}
}

// toAPIError renders any error as its wire form: daemon-level errors keep
// their pinned status/class, guard-classed (and unclassified) errors go
// through guard.HTTPStatus/ClassName.
func toAPIError(err error) APIError {
	var ae *apiErr
	if errors.As(err, &ae) {
		return APIError{Class: ae.class, Status: ae.status, Message: ae.message}
	}
	class := guard.ClassName(err)
	if class == "error" {
		class = "internal"
	}
	return APIError{Class: class, Status: guard.HTTPStatus(err), Message: err.Error()}
}

// decodeRequest decodes one JSON request body into v with strict
// settings: unknown fields and trailing data are parse errors, an
// oversized body (http.MaxBytesReader upstream) is a limit error. This is
// the single entry point for every endpoint's body — and the fuzz
// target's, so hostile bodies exercise exactly the production path.
func decodeRequest(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return classifyDecodeError(err)
	}
	// A second value after the first is trailing garbage.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		if err == nil {
			err = errors.New("trailing data after JSON body")
		}
		return classifyDecodeError(err)
	}
	return nil
}

// classifyDecodeError maps a json/io decode failure onto the guard
// taxonomy: body-size overruns are limit-classed, everything else is a
// parse failure.
func classifyDecodeError(err error) error {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		return guard.New(guard.ErrLimit, "eedsrv.decode", err)
	}
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return guard.Newf(guard.ErrParse, "eedsrv.decode", "truncated or empty JSON body")
	}
	return guard.New(guard.ErrParse, "eedsrv.decode", err)
}

// parseElem maps the wire element name onto the tree edit enum.
func parseElem(s string) (rlctree.Elem, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "R":
		return rlctree.ElemR, nil
	case "L":
		return rlctree.ElemL, nil
	case "C":
		return rlctree.ElemC, nil
	}
	return 0, guard.Newf(guard.ErrParse, "eedsrv.edit", "unknown element %q (want R, L or C)", s)
}
