package eedsrv

import (
	"net/http"
	"strconv"

	"eedtree/internal/guard"
	"eedtree/internal/obs"
)

// handleDebugRequests serves GET /v1/debug/requests (mounted only with
// Options.DebugRequests): the flight recorder's retained wide events,
// newest first, filtered by the query parameters
//
//	status=<code>   exact HTTP status
//	class=<name>    exact guard class
//	route=<path>    exact route, e.g. /v1/delay
//	id=<request-id> exact correlation ID
//	n=<count>       at most n events
//
// Like /v1/faults it bypasses the analysis spine: inspecting a wedged or
// draining server is exactly when the debug view matters, so it must not
// queue behind the requests it is describing.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	endpointCounter("/v1/debug/requests").Inc()
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		writeError(w, &apiErr{status: http.StatusMethodNotAllowed, class: "method",
			message: "/v1/debug/requests accepts GET"})
		return
	}
	q := r.URL.Query()
	f := obs.Filter{
		Class:     q.Get("class"),
		Route:     q.Get("route"),
		RequestID: q.Get("id"),
	}
	var err error
	if f.Status, err = debugInt(q.Get("status"), "status"); err != nil {
		writeError(w, err)
		return
	}
	if f.N, err = debugInt(q.Get("n"), "n"); err != nil {
		writeError(w, err)
		return
	}
	events := s.flight.Snapshot(f)
	if events == nil {
		events = []obs.WideEvent{}
	}
	writeJSON(w, http.StatusOK, DebugRequestsResponse{Events: events})
}

// handleDebugSlow serves GET /v1/debug/slow: the wide events of the
// bounded capture buffer of slow and failed requests, newest first.
func (s *Server) handleDebugSlow(w http.ResponseWriter, r *http.Request) {
	endpointCounter("/v1/debug/slow").Inc()
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		writeError(w, &apiErr{status: http.StatusMethodNotAllowed, class: "method",
			message: "/v1/debug/slow accepts GET"})
		return
	}
	caps := s.flight.Captures()
	if caps == nil {
		caps = []obs.WideEvent{}
	}
	writeJSON(w, http.StatusOK, DebugSlowResponse{Captures: caps})
}

// debugInt parses one non-negative integer query parameter ("" = 0).
func debugInt(v, name string) (int, error) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, guard.Newf(guard.ErrParse, "eedsrv.debug", "query parameter %q must be a non-negative integer, got %q", name, v)
	}
	return n, nil
}
