// Command eedd is the delay-as-a-service daemon: it holds parsed RLC
// trees and warm incremental analysis sessions resident in memory and
// answers delay queries over HTTP/JSON, so callers in an optimizer inner
// loop pay an O(depth) memory-speed query instead of a process start, a
// parse and two O(n) sweeps per probe.
//
// Endpoints (see internal/eedsrv for the wire contract):
//
//	POST /v1/nets     register a tree and warm its session
//	POST /v1/delay    one sink's characterization
//	POST /v1/analyze  whole-tree sweep
//	POST /v1/batch    many independent items under a worker bound
//	POST /v1/edit     apply element edits, requery in O(depth)
//	GET  /v1/nets     resident nets and registry counters
//	GET  /healthz     liveness; 503 while draining
//	GET  /metrics     Prometheus text exposition
//
// SIGINT/SIGTERM starts a graceful drain: /healthz flips to 503, new
// analysis requests are rejected with class "draining", requests already
// executing finish (bounded by -drain-timeout), then the process exits 0.
//
// Usage:
//
//	eedd [-addr host:port] [flags]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"eedtree/internal/eedsrv"
	"eedtree/internal/engine"
	"eedtree/internal/obs"
)

func main() {
	os.Exit(realMain())
}

// realMain is main with an exit code instead of os.Exit, so deferred
// cleanup runs and the e2e tests can re-exec the binary.
func realMain() int {
	addr := flag.String("addr", "127.0.0.1:7447", "listen address (use :0 for an ephemeral port)")
	registry := flag.Int("registry", 0, "resident nets kept warm, LRU-evicted (0 = default)")
	inflight := flag.Int("inflight", 0, "concurrently executing analysis requests; excess queue (0 = default)")
	workers := flag.Int("workers", 0, "engine worker goroutines for whole-tree sweeps (0 = one per CPU)")
	timeout := flag.Duration("timeout", 0, "per-request wall-time bound (0 = default, negative = none)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "grace period for in-flight requests at shutdown")
	pprofFlag := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the service mux")
	faultsAdmin := flag.Bool("faults-admin", false, "TESTING ONLY: mount POST /v1/faults to arm a fault-injection plan at runtime")
	logPath := flag.String("log", "", "structured JSON request log destination: a file (appended) or - for stdout")
	debugReq := flag.Bool("debug-requests", false, "mount the live flight-recorder views /v1/debug/requests and /v1/debug/slow")
	slowThresh := flag.Duration("slow-threshold", 0, "requests slower than this land in the /v1/debug/slow capture buffer (0 = default 250ms)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: eedd [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		return 2
	}
	if *registry < 0 || *inflight < 0 || *workers < 0 || *drainTimeout < 0 || *slowThresh < 0 {
		fmt.Fprintf(os.Stderr, "eedd: -registry, -inflight, -workers, -drain-timeout and -slow-threshold must be >= 0\n")
		flag.Usage()
		return 2
	}

	var logger *slog.Logger
	if *logPath != "" {
		var closeLog io.Closer
		var err error
		logger, closeLog, err = obs.NewLogger(*logPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "eedd: -log: %v\n", err)
			return 2
		}
		defer closeLog.Close()
	}
	srv := eedsrv.New(eedsrv.Options{
		Engine:          engine.New(engine.Options{Workers: *workers}),
		RegistryEntries: *registry,
		MaxInflight:     *inflight,
		RequestTimeout:  *timeout,
		MountPprof:      *pprofFlag,
		EnableFaults:    *faultsAdmin,
		Flight:          obs.NewFlightRecorder(obs.DefaultFlightEvents, obs.DefaultFlightCaptures, *slowThresh),
		DebugRequests:   *debugReq,
		Logger:          logger,
	})

	// Catch SIGTERM before the listen line announces the daemon: a signal
	// that arrives once a client can reach it must drain, not kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eedd: %v\n", err)
		return 1
	}
	// The listen line is the startup handshake: scripts (and the e2e
	// tests) read the bound address from it, which matters with :0.
	fmt.Fprintf(os.Stderr, "eedd: listening on http://%s/\n", ln.Addr())
	if *faultsAdmin {
		// Loud on purpose: a production daemon must never be armable.
		fmt.Fprintln(os.Stderr, "eedd: WARNING: fault injection armable: POST /v1/faults is mounted")
	}
	if logger != nil {
		logger.Info("listening", "addr", ln.Addr().String(), "debug_requests", *debugReq)
	}

	fresh := &freshConns{conns: make(map[net.Conn]struct{})}
	httpSrv := &http.Server{Handler: srv.Handler(), ConnState: fresh.track}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "eedd: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stop()

	// Graceful drain: reject new analysis work immediately, let what is
	// executing finish, then close the listener and idle connections.
	fmt.Fprintf(os.Stderr, "eedd: draining (%d in flight)\n", srv.Inflight())
	if logger != nil {
		logger.Info("draining", "inflight", srv.Inflight())
	}
	srv.Drain()
	if err := drain(httpSrv, fresh, *drainTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "eedd: shutdown: %v\n", err)
		return 1
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "eedd: %v\n", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "eedd: drained, bye")
	if logger != nil {
		logger.Info("drained")
	}
	return 0
}

// freshGrace is how long a drain lets a connection finish its first
// request header. Such a request is answered (an analysis request is
// refused as draining, with Retry-After, so the client knows it never
// ran); a connection that has still not sent one is closed.
const freshGrace = 100 * time.Millisecond

// drain shuts httpSrv down within timeout, closing the connections still
// fresh freshGrace into it.
func drain(httpSrv *http.Server, fresh *freshConns, timeout time.Duration) error {
	closeFresh := time.AfterFunc(freshGrace, fresh.closeAll)
	defer closeFresh.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return httpSrv.Shutdown(ctx)
}

// freshConns tracks the connections in http.StateNew: accepted, but not
// yet through a whole request header. Shutdown counts such a connection
// as active until it has been new for 5 s, so a client's spare dial,
// which never sends a request, would hold up the drain that long.
type freshConns struct {
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// track is the server's ConnState hook.
func (f *freshConns) track(c net.Conn, st http.ConnState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case st != http.StateNew:
		delete(f.conns, c)
	case f.closed:
		c.Close()
	default:
		f.conns[c] = struct{}{}
	}
}

// closeAll closes every tracked connection, and each new one from now on.
func (f *freshConns) closeAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	for c := range f.conns {
		c.Close()
	}
	clear(f.conns)
}
