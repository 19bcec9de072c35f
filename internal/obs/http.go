package obs

import "net/http"

// Handler returns an http.Handler serving the registry's metrics — the
// mount point for a long-running service's /metrics endpoint, where the
// CLIs use DumpPrometheus at exit. It serves the Prometheus text
// exposition. Exposition snapshots atomics and never blocks recording,
// so scraping a loaded server is safe.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
