package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"eedtree/internal/eedsrv"
)

// TestMain turns the test binary into eedd when re-exec'd, so the e2e
// tests below exercise the real daemon lifecycle: flags, listen
// handshake, serving, signal-driven drain and exit codes.
func TestMain(m *testing.M) {
	if os.Getenv("EEDD_E2E") == "1" {
		os.Exit(realMain())
	}
	os.Exit(m.Run())
}

func eeddCommand(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EEDD_E2E=1")
	return cmd
}

func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("not an exit error: %v", err)
	}
	return ee.ExitCode()
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"stray-positional-arg"},
		{"-registry", "-5"},
		{"-inflight", "-1"},
	} {
		out, err := eeddCommand(t, args...).CombinedOutput()
		if code := exitCode(t, err); code != 2 {
			t.Fatalf("args %v: exit %d, want 2\n%s", args, code, out)
		}
		if !strings.Contains(string(out), "usage: eedd") {
			t.Fatalf("args %v: no usage text:\n%s", args, out)
		}
	}
}

func TestListenFailureExits1(t *testing.T) {
	out, err := eeddCommand(t, "-addr", "256.256.256.256:1").CombinedOutput()
	if code := exitCode(t, err); code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out)
	}
}

var listenRe = regexp.MustCompile(`listening on (http://[^/\s]+)/`)

// stderrLog collects the daemon's stderr after the listen handshake. The
// draining goroutine writes it; tests read it only via String, which
// waits for the pipe to reach EOF (the process exited) first — without
// that barrier an assertion could race the last drain lines.
type stderrLog struct {
	mu   sync.Mutex
	b    bytes.Buffer
	done chan struct{}
}

func (l *stderrLog) String() string {
	select {
	case <-l.done:
	case <-time.After(10 * time.Second):
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// startDaemon launches eedd on an ephemeral port and returns its base
// URL plus the running command.
func startDaemon(t *testing.T, extraArgs ...string) (*exec.Cmd, string, *stderrLog) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	cmd := eeddCommand(t, args...)
	// A hand-rolled pipe instead of cmd.StderrPipe(): Wait() closes the
	// latter as soon as the process exits, racing the draining goroutine
	// out of the final "draining"/"drained, bye" lines. With our own pipe
	// the reader sees EOF exactly when the child's last dup closes.
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = pw
	cmd.Stdout = new(bytes.Buffer) // read it only after Wait
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		t.Fatal(err)
	}
	pw.Close() // the child holds its own copy
	rest := &stderrLog{done: make(chan struct{})}
	sc := bufio.NewScanner(pr)
	var base string
	for sc.Scan() {
		if m := listenRe.FindStringSubmatch(sc.Text()); m != nil {
			base = m[1]
			break
		}
	}
	if base == "" {
		cmd.Process.Kill()
		cmd.Wait()
		pr.Close()
		t.Fatal("daemon never printed its listen address")
	}
	// Keep draining stderr so the child never blocks on a full pipe.
	go func() {
		defer close(rest.done)
		defer pr.Close()
		for sc.Scan() {
			rest.mu.Lock()
			rest.b.WriteString(sc.Text() + "\n")
			rest.mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd, base, rest
}

func TestServeQueryAndGracefulDrain(t *testing.T) {
	cmd, base, _ := startDaemon(t)

	// A point query on an inline tree round-trips.
	body := `{"tree": "a - 25 1n 50f\nb a 25 1n 50f\n", "node": "b"}`
	resp, err := http.Post(base+"/v1/delay", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var delay struct {
		Net    string `json:"net"`
		Result struct {
			Delay50 float64 `json:"delay50"`
		} `json:"result"`
	}
	err = json.NewDecoder(resp.Body).Decode(&delay)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("delay: status %d err %v", resp.StatusCode, err)
	}
	if delay.Result.Delay50 <= 0 || len(delay.Net) != 64 {
		t.Fatalf("delay response = %+v", delay)
	}

	// Healthy before the signal...
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// ...SIGTERM drains and exits 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); exitCode(t, err) != 0 {
		t.Fatalf("exit %d after SIGTERM, want 0", exitCode(t, err))
	}
}

// postDelay sends one healthy /v1/delay on an inline tree and returns
// its status.
func postDelay(t *testing.T, base string) int {
	t.Helper()
	body := `{"tree": "a - 25 1n 50f\nb a 25 1n 50f\n", "node": "b"}`
	resp, err := http.Post(base+"/v1/delay", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestLogToStdout: `eedd -log -` starts, writes one JSON "request" record
// per request to stdout, and drains to exit 0 on SIGTERM.
func TestLogToStdout(t *testing.T) {
	cmd, base, rest := startDaemon(t, "-log", "-")
	if code := postDelay(t, base); code != 200 {
		t.Fatalf("delay: status %d", code)
	}
	cmd.Process.Signal(syscall.SIGTERM)
	if err := cmd.Wait(); exitCode(t, err) != 0 {
		t.Fatalf("exit %d after SIGTERM, want 0\nstderr:\n%s", exitCode(t, err), rest.String())
	}
	stdout := cmd.Stdout.(*bytes.Buffer).String()
	requests := 0
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		var rec struct {
			Msg string `json:"msg"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("stdout line is not JSON: %q: %v", line, err)
		}
		if rec.Msg == "request" {
			requests++
		}
	}
	if requests != 1 {
		t.Fatalf("stdout holds %d request records, want 1:\n%s", requests, stdout)
	}
}

func TestMetricsServed(t *testing.T) {
	_, base, _ := startDaemon(t)
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw := new(strings.Builder)
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		raw.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(raw.String(), "eed_registry_nets") {
		t.Fatalf("metrics: status %d body:\n%s", resp.StatusCode, raw.String())
	}
}

func TestPprofMountedOnRequest(t *testing.T) {
	_, base, _ := startDaemon(t, "-pprof")
	resp, err := http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof cmdline: %d", resp.StatusCode)
	}
}

func waitHTTP(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("server at %s never answered", url)
}

func TestDrainRejectsDuringShutdownWindow(t *testing.T) {
	cmd, base, rest := startDaemon(t, "-drain-timeout", "5s")
	waitHTTP(t, base+"/healthz")
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); exitCode(t, err) != 0 {
		t.Fatalf("exit %d, want 0\nstderr: %s", exitCode(t, err), rest.String())
	}
	if !strings.Contains(rest.String(), "draining") || !strings.Contains(rest.String(), "drained, bye") {
		t.Fatalf("drain log lines missing:\n%s", rest.String())
	}
}

// TestDrainClosesSilentConnection: a connection that never sent a byte
// holds no work, so the drain closes it freshGrace in and exits 0.
// http.Server.Shutdown alone counts it as active for 5 s, so the 1 s
// drain deadline would expire first and the daemon exit 1.
func TestDrainClosesSilentConnection(t *testing.T) {
	cmd, base, rest := startDaemon(t, "-drain-timeout", "1s")
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The daemon accepts connections in arrival order, so once a request
	// on a later one is answered, the silent one is accepted.
	waitHTTP(t, base+"/healthz")
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); exitCode(t, err) != 0 {
		t.Fatalf("exit %d after SIGTERM with a silent connection open, want 0\nstderr:\n%s",
			exitCode(t, err), rest.String())
	}
}

// TestDrainAnswersAHeaderInTransit: a connection partway through its
// first request header when the drain starts is not cut off. Its header
// completes inside freshGrace, and the request is refused as draining
// with Retry-After, which tells the client it never ran and is safe to
// retry. Closing fresh connections at once would drop it unanswered.
func TestDrainAnswersAHeaderInTransit(t *testing.T) {
	srv := eedsrv.New(eedsrv.Options{})
	fresh := &freshConns{conns: make(map[net.Conn]struct{})}
	httpSrv := &http.Server{Handler: srv.Handler(), ConnState: fresh.track}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go httpSrv.Serve(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/delay HTTP/1.1\r\nHost: eedd\r\n")); err != nil {
		t.Fatal(err)
	}
	for tracked := 0; tracked == 0; time.Sleep(time.Millisecond) {
		fresh.mu.Lock()
		tracked = len(fresh.conns)
		fresh.mu.Unlock()
	}

	srv.Drain()
	drained := make(chan error, 1)
	go func() { drained <- drain(httpSrv, fresh, 5*time.Second) }()
	// Shutdown closes the listener as it starts, so once a dial fails the
	// drain is under way.
	for {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			break
		}
		c.Close()
		time.Sleep(time.Millisecond)
	}
	body := `{"tree": "a - 25 1n 50f\nb a 25 1n 50f\n", "node": "b"}`
	if _, err := fmt.Fprintf(conn, "Content-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(body), body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("request whose header was in transit at drain start: %v, want a draining 503", err)
	}
	var apiErr struct {
		Error struct {
			Class string `json:"class"`
		} `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&apiErr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable ||
		apiErr.Error.Class != "draining" || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("status %d, class %q, Retry-After %q (decode error %v), want a draining 503 with Retry-After",
			resp.StatusCode, apiErr.Error.Class, resp.Header.Get("Retry-After"), err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestFaultsAdminEndpointMounted(t *testing.T) {
	cmd, base, rest := startDaemon(t, "-faults-admin")
	resp, err := http.Post(base+"/v1/faults", "application/json",
		strings.NewReader(`{"spec":"seed=2;srv.stall:p=0.5,d=1ms"}`))
	if err != nil {
		t.Fatal(err)
	}
	var fr struct {
		Enabled bool   `json:"enabled"`
		Spec    string `json:"spec"`
	}
	err = json.NewDecoder(resp.Body).Decode(&fr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 || !fr.Enabled || !strings.Contains(fr.Spec, "srv.stall") {
		t.Fatalf("arm: status %d err %v resp %+v", resp.StatusCode, err, fr)
	}
	cmd.Process.Signal(syscall.SIGTERM)
	if err := cmd.Wait(); exitCode(t, err) != 0 {
		t.Fatalf("exit %d, want 0", exitCode(t, err))
	}
	if !strings.Contains(rest.String(), "WARNING: fault injection armable") {
		t.Fatalf("no fault-injection warning on stderr:\n%s", rest.String())
	}
}

// TestSigtermDuringActiveLoad pins the drain contract under fire: a
// request stalled inside its worker slot (armed through /v1/faults) must
// complete with a 200 while the daemon drains, and the daemon must still
// exit 0.
func TestSigtermDuringActiveLoad(t *testing.T) {
	cmd, base, rest := startDaemon(t, "-faults-admin")
	resp, err := http.Post(base+"/v1/faults", "application/json",
		strings.NewReader(`{"spec":"srv.stall:p=1,n=1,d=400ms"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("arming the stall: status %d", resp.StatusCode)
	}

	type result struct {
		code int
		body string
		err  error
	}
	done := make(chan result, 1)
	go func() {
		body := `{"tree": "a - 25 1n 50f\nb a 25 1n 50f\n", "node": "b"}`
		resp, err := http.Post(base+"/v1/delay", "application/json", strings.NewReader(body))
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, rerr := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if rerr != nil {
				break
			}
		}
		done <- result{code: resp.StatusCode, body: sb.String()}
	}()

	// Let the request reach its 400ms stall, then SIGTERM mid-flight.
	time.Sleep(150 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("in-flight request died during drain: %v", res.err)
	}
	if res.code != 200 || !strings.Contains(res.body, "delay50") {
		t.Fatalf("in-flight request: status %d body %s", res.code, res.body)
	}
	if err := cmd.Wait(); exitCode(t, err) != 0 {
		t.Fatalf("exit %d after SIGTERM under load, want 0\nstderr:\n%s", exitCode(t, err), rest.String())
	}
}
