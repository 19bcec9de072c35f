package eedsrv

import (
	"net/http"

	"eedtree/internal/faultinj"
	"eedtree/internal/guard"
)

// handleFaults serves the test-only /v1/faults admin endpoint (mounted
// only with Options.EnableFaults):
//
//	GET          → the armed plan's canonical spec and per-point counters
//	POST {spec}  → parse and arm the spec; an empty spec disarms
//
// The endpoint deliberately bypasses the analysis spine: no drain
// rejection (a chaos harness must clear faults from a draining instance)
// and no worker-slot queueing (arming a plan must not sit behind a
// stalled handler the plan itself caused). The body-size cap still
// applies.
func (s *Server) handleFaults(w http.ResponseWriter, r *http.Request) {
	endpointCounter("/v1/faults").Inc()
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, faultsView())
	case http.MethodPost:
		r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
		var req FaultsRequest
		if err := decodeRequest(r.Body, &req); err != nil {
			writeError(w, err)
			return
		}
		if req.Spec == "" {
			faultinj.Deactivate()
			writeJSON(w, http.StatusOK, faultsView())
			return
		}
		plan, err := faultinj.Parse(req.Spec)
		if err != nil {
			writeError(w, guard.New(guard.ErrParse, "eedsrv.faults", err))
			return
		}
		faultinj.Activate(plan)
		writeJSON(w, http.StatusOK, faultsView())
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, &apiErr{status: http.StatusMethodNotAllowed, class: "method",
			message: "/v1/faults accepts GET and POST"})
	}
}

// faultsView snapshots the armed plan for the wire.
func faultsView() FaultsResponse {
	plan := faultinj.Active()
	if plan == nil {
		return FaultsResponse{Enabled: false}
	}
	resp := FaultsResponse{Enabled: true, Spec: plan.String()}
	for _, st := range plan.Stats() {
		ps := FaultPointStatus{
			Point: string(st.Point), P: st.P, N: st.N, After: st.After,
			Calls: st.Calls, Fired: st.Fired,
		}
		if st.D > 0 {
			ps.D = st.D.String()
		}
		resp.Points = append(resp.Points, ps)
	}
	return resp
}
