// Command eedchaos is the chaos-soak harness for the eedd delay service:
// it drives mixed load through internal/eedclient while walking the
// server through a schedule of injected faults (stalls, handler panics,
// dropped connections, registry eviction storms, queue timeouts, numeric
// degradation) and a full SIGTERM/restart cycle, then gates on three
// invariants:
//
//   - zero bit-incorrect payloads: every 200 response is compared
//     bit-for-bit (math.Float64bits) against a locally computed
//     core.AnalyzeTree oracle — faults may slow or fail requests, but a
//     successful answer must never be silently wrong;
//   - a bounded error budget: ops that still fail after the client's
//     retries must stay under -budget percent of all ops;
//   - post-fault recovery: once the last fault is cleared, the warm
//     point-query p50 must return under -p50-gate within -recover-within.
//
// With -eedd it spawns the real daemon (with -faults-admin) and restarts
// it with SIGTERM; without it the soak runs against an in-process server
// on a loopback listener and restarts it by bouncing the listener.
//
// The verdict and per-phase numbers go to stdout. Exit status: 0 all
// gates pass, 1 a gate failed, 2 usage.
//
// Usage:
//
//	eedchaos -net examples/nets/line64.tree [-d 30s] [-c 8] \
//	         [-eedd ./eedd] [-seed 1] [-budget 1.0] \
//	         [-p50-gate 5ms] [-recover-within 5s]
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"eedtree/internal/core"
	"eedtree/internal/eedclient"
	"eedtree/internal/eedsrv"
	"eedtree/internal/engine"
	"eedtree/internal/faultinj"
	"eedtree/internal/obs"
	"eedtree/internal/rlctree"
)

func main() {
	os.Exit(realMain())
}

// phase is one segment of the soak schedule. Spec is a faultinj spec
// template; an empty spec clears all faults. The restart phase stops and
// restarts the server instead of arming anything.
type phase struct {
	Name    string
	Frac    float64
	Spec    string
	Restart bool
}

// The schedule: ramp from clean baseline through every fault family,
// kill and restart the server, then measure recovery. guard.panic and
// batch.cancel are deliberately absent — in in-process mode the fault
// plan is global to the harness process, and those two points could fire
// inside the harness's own verification plumbing.
func schedule(seed int64) []phase {
	s := func(tmpl string) string { return fmt.Sprintf("seed=%d;", seed) + tmpl }
	return []phase{
		{Name: "clean", Frac: 0.10},
		{Name: "stall", Frac: 0.15, Spec: s("srv.stall:p=0.3,d=20ms")},
		{Name: "panic_drop", Frac: 0.15, Spec: s("srv.panic:p=0.03;srv.conn_drop:p=0.03")},
		{Name: "evict_storm", Frac: 0.10, Spec: s("reg.evict:p=0.05")},
		{Name: "queue_numeric", Frac: 0.15, Spec: s("srv.queue_timeout:p=0.05;sess.numeric:p=0.002,n=20")},
		{Name: "restart", Frac: 0.10, Restart: true},
		{Name: "recovery", Frac: 0.25},
	}
}

type config struct {
	netFile       string
	eeddPath      string // "" = in-process server
	dur           time.Duration
	conc          int
	seed          int64
	budgetPct     float64
	p50Gate       time.Duration
	recoverWithin time.Duration
}

type phaseStats struct {
	Name    string
	Ops     int64
	Errors  int64
	Elapsed float64 // seconds
}

type chaosReport struct {
	Net            string
	Mode           string // "in-process" or "daemon"
	Addr           string
	DurationS      float64
	Concurrency    int
	Seed           int64
	Phases         []phaseStats
	TotalOps       int64
	Success        int64
	Recovered      int64 // failed once, healed by harness re-register/health-wait
	Failed         int64
	FailedByClass  map[string]int
	Mismatches     int64
	MismatchSample string
	ClientRetries  uint64
	BreakerTrips   uint64
	SuccessRatePct float64
	BudgetPct      float64
	RecoveredInS   float64 // -1 = never
	RecoveryP50us  float64
	P50GateUs      float64
	GateFailures   []string
}

func realMain() int {
	cfg := config{}
	netFile := flag.String("net", "examples/nets/line64.tree", "tree file driven at the server (rlctree text format)")
	eeddPath := flag.String("eedd", "", "path to an eedd binary to spawn and SIGTERM-restart (empty = in-process server)")
	dur := flag.Duration("d", 30*time.Second, "total soak duration")
	conc := flag.Int("c", 8, "concurrent workers (every 4th is an editor)")
	seed := flag.Int64("seed", 1, "seed for fault schedules and workload RNG")
	budget := flag.Float64("budget", 1.0, "max percent of ops that may fail after retries")
	p50Gate := flag.Duration("p50-gate", 5*time.Millisecond, "warm point-query p50 the server must recover to, measured under the still-running worker load")
	recoverWithin := flag.Duration("recover-within", 5*time.Second, "how quickly after the last fault the p50 gate must hold")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: eedchaos [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 0 || *dur <= 0 || *conc <= 0 || *budget < 0 || *p50Gate <= 0 || *recoverWithin <= 0 {
		flag.Usage()
		return 2
	}
	cfg.netFile, cfg.eeddPath, cfg.dur, cfg.conc, cfg.seed = *netFile, *eeddPath, *dur, *conc, *seed
	cfg.budgetPct, cfg.p50Gate, cfg.recoverWithin = *budget, *p50Gate, *recoverWithin

	report, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eedchaos: %v\n", err)
		return 1
	}
	fmt.Print(renderText(report))
	if len(report.GateFailures) > 0 {
		for _, g := range report.GateFailures {
			fmt.Fprintf(os.Stderr, "eedchaos: GATE FAILED: %s\n", g)
		}
		return 1
	}
	fmt.Fprintln(os.Stderr, "eedchaos: all gates passed")
	return 0
}

// serverCtl abstracts the server under torture: where it is, how to arm
// faults, how to kill and resurrect it.
type serverCtl interface {
	Base() string
	SetFaults(spec string) error
	Restart() error
	Close()
}

// ---- in-process control ----

type inprocCtl struct {
	addr    string
	httpSrv *http.Server
	srv     *eedsrv.Server
}

func newInprocCtl() (*inprocCtl, error) {
	c := &inprocCtl{addr: "127.0.0.1:0"}
	if err := c.start(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *inprocCtl) start() error {
	var ln net.Listener
	var err error
	// After a restart the old listener may linger for a beat; retry the
	// bind briefly so the base URL survives the bounce.
	for i := 0; i < 50; i++ {
		if ln, err = net.Listen("tcp", c.addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return err
	}
	c.addr = ln.Addr().String()
	c.srv = eedsrv.New(eedsrv.Options{Engine: engine.New(engine.Options{}), EnableFaults: true})
	// Injected srv.panic faults are recovered by net/http per connection;
	// discard its stack-trace logging — the soak accounts for them as
	// transport errors, the traces are pure noise.
	c.httpSrv = &http.Server{
		Handler:  c.srv.Handler(),
		ErrorLog: log.New(io.Discard, "", 0),
	}
	go c.httpSrv.Serve(ln)
	return nil
}

func (c *inprocCtl) Base() string { return "http://" + c.addr }

func (c *inprocCtl) SetFaults(spec string) error {
	if spec == "" {
		faultinj.Deactivate()
		return nil
	}
	plan, err := faultinj.Parse(spec)
	if err != nil {
		return err
	}
	faultinj.Activate(plan)
	return nil
}

// Restart bounces the listener the way a real restart would: drain,
// shut down, then a fresh server (empty registry, cold sessions) on the
// same address. The fault plan does not survive — neither would a real
// process's.
func (c *inprocCtl) Restart() error {
	faultinj.Deactivate()
	c.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	return c.start()
}

func (c *inprocCtl) Close() {
	faultinj.Deactivate()
	c.httpSrv.Close()
}

// ---- spawned-daemon control ----

type procCtl struct {
	path  string
	addr  string
	cmd   *exec.Cmd
	admin *eedclient.Client
}

var listenRe = regexp.MustCompile(`listening on (http://([^/\s]+))/`)

func newProcCtl(path string) (*procCtl, error) {
	c := &procCtl{path: path, addr: "127.0.0.1:0"}
	if err := c.start(); err != nil {
		return nil, err
	}
	admin, err := eedclient.New(eedclient.Options{BaseURL: c.Base(), Seed: 1})
	if err != nil {
		c.Close()
		return nil, err
	}
	c.admin = admin
	return c, nil
}

func (c *procCtl) start() error {
	var lastErr error
	// The OS frees the port when the previous instance exits; a short
	// retry loop rides out the window where it is still bound.
	for i := 0; i < 25; i++ {
		cmd := exec.Command(c.path, "-addr", c.addr, "-faults-admin")
		stderr, err := cmd.StderrPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		sc := bufio.NewScanner(stderr)
		base := ""
		for sc.Scan() {
			if m := listenRe.FindStringSubmatch(sc.Text()); m != nil {
				base = m[2]
				break
			}
		}
		if base != "" {
			go func() { // keep the pipe drained for the daemon's lifetime
				for sc.Scan() {
				}
			}()
			c.addr, c.cmd = base, cmd
			return nil
		}
		// Listen failed (stderr closed without the handshake line).
		lastErr = cmd.Wait()
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("daemon never bound %s: %v", c.addr, lastErr)
}

func (c *procCtl) Base() string { return "http://" + c.addr }

func (c *procCtl) SetFaults(spec string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := c.admin.SetFaults(ctx, spec)
	return err
}

// Restart SIGTERMs the daemon, requires a clean drain (exit 0), and
// respawns it on the same address.
func (c *procCtl) Restart() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := c.cmd.Wait(); err != nil {
		return fmt.Errorf("daemon did not drain cleanly on SIGTERM: %v", err)
	}
	return c.start()
}

func (c *procCtl) Close() {
	if c.cmd != nil && c.cmd.ProcessState == nil {
		c.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { c.cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			c.cmd.Process.Kill()
			c.cmd.Wait()
		}
	}
}

// ---- bit-identity oracle ----

// sameResult compares two wire results bit-for-bit: float fields via
// Float64bits, optional fields via nil-ness then bits.
func sameResult(a, b eedsrv.NodeResult) bool {
	f := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	p := func(x, y *float64) bool {
		if (x == nil) != (y == nil) {
			return false
		}
		return x == nil || f(*x, *y)
	}
	return a.Node == b.Node &&
		f(a.Delay50, b.Delay50) && f(a.Rise, b.Rise) && f(a.Overshoot, b.Overshoot) &&
		f(a.Elmore50, b.Elmore50) && f(a.ElmoreRise, b.ElmoreRise) &&
		p(a.Zeta, b.Zeta) && p(a.OmegaN, b.OmegaN) && p(a.Settle, b.Settle) &&
		a.Degraded == b.Degraded && a.DegradedClass == b.DegradedClass
}

// oracleFor computes the ground-truth wire results for a tree with the
// core analyzer directly — no engine sessions, no fault points, no HTTP.
func oracleFor(tree *rlctree.Tree) (map[string]eedsrv.NodeResult, []eedsrv.NodeResult, error) {
	analyses, err := core.AnalyzeTree(tree)
	if err != nil {
		return nil, nil, err
	}
	byName := make(map[string]eedsrv.NodeResult, len(analyses))
	ordered := make([]eedsrv.NodeResult, 0, len(analyses))
	for _, na := range analyses {
		nr := eedsrv.NodeResultOf(na)
		byName[nr.Node] = nr
		ordered = append(ordered, nr)
	}
	return byName, ordered, nil
}

func fpHex(t *rlctree.Tree) string {
	fp := t.Fingerprint()
	return hex.EncodeToString(fp[:])
}

// ---- soak state ----

type soak struct {
	cfg      config
	base     string
	shared   string // shared net fingerprint (stable: content never changes)
	treeText string
	names    []string
	byName   map[string]eedsrv.NodeResult
	ordered  []eedsrv.NodeResult

	stop     atomic.Bool
	phaseIdx atomic.Int32
	phaseOps []atomic.Int64
	phaseErr []atomic.Int64

	ops        atomic.Int64
	success    atomic.Int64
	recovered  atomic.Int64
	failed     atomic.Int64
	mismatches atomic.Int64

	mu             sync.Mutex
	failedByClass  map[string]int
	mismatchSample string
}

func (s *soak) noteMismatch(desc string) {
	s.mismatches.Add(1)
	s.mu.Lock()
	if s.mismatchSample == "" {
		s.mismatchSample = desc
	}
	s.mu.Unlock()
}

// noteFailure books one unrecovered op under its failure class. A
// breaker refusal carries the class and status of the failure that
// opened the breaker, so it is recognized by its sentinel first.
func (s *soak) noteFailure(err error) {
	s.failed.Add(1)
	s.phaseErr[s.phaseIdx.Load()].Add(1)
	class := "transport"
	var ce *eedclient.Error
	if errors.As(err, &ce) {
		switch {
		case errors.Is(ce.Err, eedclient.ErrBreakerOpen):
			class = "breaker_open"
		case ce.Class != "":
			class = ce.Class
		case ce.Status != 0:
			class = fmt.Sprintf("http_%d", ce.Status)
		}
	}
	s.mu.Lock()
	s.failedByClass[class]++
	s.mu.Unlock()
}

func newWorkerClient(base string, seed int64) (*eedclient.Client, error) {
	return eedclient.New(eedclient.Options{
		BaseURL:         base,
		Seed:            seed,
		RequestTimeout:  5 * time.Second,
		MaxRetries:      4,
		BackoffCap:      500 * time.Millisecond,
		BreakerCooldown: 300 * time.Millisecond,
	})
}

// absorb handles a failed op whose cause may be a dead-but-restarting
// server (transport errors, breaker refusals): wait for health, retry the
// op once. Returns true if the retry succeeded (counted as recovered).
func (s *soak) absorb(ctx context.Context, cl *eedclient.Client, retry func() error) bool {
	deadline := time.Now().Add(s.cfg.recoverWithin)
	for time.Now().Before(deadline) && !s.stop.Load() {
		h, err := cl.Health(ctx)
		if err == nil && h.Status == "ok" {
			if retry() == nil {
				s.recovered.Add(1)
				return true
			}
			return false
		}
		time.Sleep(50 * time.Millisecond)
	}
	return false
}

// reader drives delay/analyze against the shared net and verifies every
// successful payload against the oracle.
func (s *soak) reader(ctx context.Context, w int, cl *eedclient.Client) {
	rng := rand.New(rand.NewSource(s.cfg.seed*1000 + int64(w)))
	for !s.stop.Load() {
		s.ops.Add(1)
		s.phaseOps[s.phaseIdx.Load()].Add(1)
		if rng.Intn(5) < 4 {
			node := s.names[rng.Intn(len(s.names))]
			do := func() error {
				resp, err := cl.Delay(ctx, eedclient.DelayRequest{Net: s.shared, Node: node})
				if err != nil {
					return err
				}
				if !sameResult(resp.Result, s.byName[node]) {
					s.noteMismatch(fmt.Sprintf("delay %s: got %+v want %+v", node, resp.Result, s.byName[node]))
				}
				return nil
			}
			s.finish(ctx, cl, do, do())
		} else {
			do := func() error {
				resp, err := cl.Analyze(ctx, eedclient.AnalyzeRequest{Net: s.shared})
				if err != nil {
					return err
				}
				if len(resp.Nodes) != len(s.ordered) {
					s.noteMismatch(fmt.Sprintf("analyze: %d nodes, want %d", len(resp.Nodes), len(s.ordered)))
					return nil
				}
				for i := range resp.Nodes {
					if !sameResult(resp.Nodes[i], s.ordered[i]) {
						s.noteMismatch(fmt.Sprintf("analyze node %s: got %+v want %+v",
							s.ordered[i].Node, resp.Nodes[i], s.ordered[i]))
						break
					}
				}
				return nil
			}
			s.finish(ctx, cl, do, do())
		}
	}
}

// finish books one op outcome, healing 404s (evicted/restarted registry)
// by re-registering the shared net and transport-level failures by
// waiting for health and retrying once.
func (s *soak) finish(ctx context.Context, cl *eedclient.Client, retry func() error, err error) {
	if err == nil {
		s.success.Add(1)
		return
	}
	var ce *eedclient.Error
	if errors.As(err, &ce) && ce.Status == http.StatusNotFound {
		// The registry lost the net (eviction storm, restart): putting the
		// same content back restores the same fingerprint.
		if _, rerr := cl.Register(ctx, s.treeText); rerr == nil && retry() == nil {
			s.recovered.Add(1)
			return
		}
		s.noteFailure(err)
		return
	}
	if errors.As(err, &ce) && (ce.Status == 0 || ce.Status >= 500) {
		if s.absorb(ctx, cl, retry) {
			return
		}
	}
	s.noteFailure(err)
}

// editor owns a private variant of the net (one stub section under the
// root) and drives /v1/edit, verifying after every confirmed edit that
// the server's new fingerprint and payload match a locally maintained
// replica — the edit path's bit-identity oracle.
func (s *soak) editor(ctx context.Context, w int, cl *eedclient.Client, rootName string) {
	stub := fmt.Sprintf("zz%d", w)
	text := s.treeText + fmt.Sprintf("%s %s %d 1n 10f\n", stub, rootName, w+1)
	replica, err := rlctree.ParseString(text)
	if err != nil {
		s.noteFailure(&eedclient.Error{Op: "editor_setup", Err: err})
		return
	}
	info, err := cl.Register(ctx, text)
	if err != nil {
		s.noteFailure(err)
		return
	}
	cur := info.Net
	if want := fpHex(replica); cur != want {
		s.noteMismatch(fmt.Sprintf("register fingerprint: got %s want %s", cur, want))
	}
	val := replica.Section(stub).C()
	for !s.stop.Load() {
		s.ops.Add(1)
		s.phaseOps[s.phaseIdx.Load()].Add(1)
		val += 1e-18
		resp, err := cl.Edit(ctx, eedclient.EditRequest{
			Net:   cur,
			Edits: []eedclient.EditSpec{{Node: stub, Elem: "C", Value: val}},
			Node:  stub,
		})
		if err == nil {
			// Confirmed: advance the replica and verify bit identity.
			if serr := replica.Section(stub).SetC(val); serr != nil {
				s.noteFailure(&eedclient.Error{Op: "edit_replica", Err: serr})
				return
			}
			if want := fpHex(replica); resp.Net != want {
				s.noteMismatch(fmt.Sprintf("edit fingerprint: got %s want %s", resp.Net, want))
			}
			byName, _, oerr := oracleFor(replica)
			if oerr != nil {
				s.noteFailure(&eedclient.Error{Op: "edit_oracle", Err: oerr})
			} else if !sameResult(resp.Result, byName[stub]) {
				s.noteMismatch(fmt.Sprintf("edit result %s: got %+v want %+v", stub, resp.Result, byName[stub]))
			}
			cur = resp.Net
			s.success.Add(1)
			continue
		}
		// Failed or ambiguous: never advance the replica on uncertainty.
		// Re-register the replica's last confirmed content — idempotent,
		// and it reconverges the fingerprint chain after evictions,
		// restarts, and edits that may or may not have applied server-side
		// (an orphaned applied edit stays resident under its own key,
		// harmless).
		val -= 1e-18
		resync := func() error {
			text := replica.Format()
			fresh, perr := rlctree.ParseString(text)
			if perr != nil {
				return perr
			}
			// Format→Parse is bit-exact (unit.Format verifies every
			// rendering reproduces math.Float64bits), so the daemon now
			// holds exactly the replica — anything else is a real
			// round-trip defect the soak must surface, not paper over.
			if got, want := fpHex(fresh), fpHex(replica); got != want {
				s.noteMismatch(fmt.Sprintf("resync round-trip fingerprint: got %s want %s", got, want))
			}
			ri, rerr := cl.Register(ctx, text)
			if rerr != nil {
				return rerr
			}
			cur = ri.Net
			return nil
		}
		var ce *eedclient.Error
		if errors.As(err, &ce) && ce.Status == http.StatusNotFound {
			if resync() == nil {
				s.recovered.Add(1)
				continue
			}
			s.noteFailure(err)
			continue
		}
		if errors.As(err, &ce) && (ce.Status == 0 || ce.Status >= 500) {
			if s.absorb(ctx, cl, resync) {
				continue
			}
		} else {
			resync() // best-effort resync even on 4xx
		}
		s.noteFailure(err)
	}
}

func run(cfg config) (*chaosReport, error) {
	treeBytes, err := os.ReadFile(cfg.netFile)
	if err != nil {
		return nil, err
	}
	tree, err := rlctree.Parse(bytes.NewReader(treeBytes))
	if err != nil {
		return nil, err
	}
	roots := tree.Roots()
	if len(roots) == 0 {
		return nil, fmt.Errorf("net %q has no root section", cfg.netFile)
	}

	var ctl serverCtl
	mode := "in-process"
	if cfg.eeddPath != "" {
		mode = "daemon"
		if ctl, err = newProcCtl(cfg.eeddPath); err != nil {
			return nil, err
		}
	} else if ctl, err = newInprocCtl(); err != nil {
		return nil, err
	}
	defer ctl.Close()

	ctx := context.Background()
	admin, err := eedclient.New(eedclient.Options{BaseURL: ctl.Base(), Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	info, err := admin.Register(ctx, string(treeBytes))
	if err != nil {
		return nil, fmt.Errorf("register %s: %w", cfg.netFile, err)
	}

	byName, ordered, err := oracleFor(tree)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, tree.Len())
	for _, sec := range tree.Sections() {
		names = append(names, sec.Name())
	}
	// Warm the shared session before the clock starts.
	for i := 0; i < 20; i++ {
		if _, err := admin.Delay(ctx, eedclient.DelayRequest{Net: info.Net, Node: names[len(names)-1]}); err != nil {
			return nil, fmt.Errorf("warmup: %w", err)
		}
	}

	phases := schedule(cfg.seed)
	s := &soak{
		cfg:           cfg,
		base:          ctl.Base(),
		shared:        info.Net,
		treeText:      string(treeBytes),
		names:         names,
		byName:        byName,
		ordered:       ordered,
		phaseOps:      make([]atomic.Int64, len(phases)),
		phaseErr:      make([]atomic.Int64, len(phases)),
		failedByClass: map[string]int{},
	}

	clients := make([]*eedclient.Client, cfg.conc)
	var wg sync.WaitGroup
	for w := 0; w < cfg.conc; w++ {
		cl, err := newWorkerClient(ctl.Base(), cfg.seed*100+int64(w))
		if err != nil {
			return nil, err
		}
		clients[w] = cl
		wg.Add(1)
		go func(w int, cl *eedclient.Client) {
			defer wg.Done()
			if w%4 == 3 {
				s.editor(ctx, w, cl, roots[0].Name())
			} else {
				s.reader(ctx, w, cl)
			}
		}(w, cl)
	}

	// The controller walks the schedule while the workers hammer away.
	report := &chaosReport{
		Net: cfg.netFile, Mode: mode, Addr: ctl.Base(),
		DurationS: cfg.dur.Seconds(), Concurrency: cfg.conc, Seed: cfg.seed,
		BudgetPct: cfg.budgetPct, P50GateUs: float64(cfg.p50Gate) / 1e3,
		RecoveredInS: -1,
	}
	for i, ph := range phases {
		s.phaseIdx.Store(int32(i))
		t0 := time.Now()
		switch {
		case ph.Restart:
			if err := ctl.SetFaults(""); err != nil {
				report.GateFailures = append(report.GateFailures, fmt.Sprintf("clearing faults before restart: %v", err))
			}
			if err := ctl.Restart(); err != nil {
				report.GateFailures = append(report.GateFailures, fmt.Sprintf("restart: %v", err))
			}
		case ph.Spec != "":
			if err := ctl.SetFaults(ph.Spec); err != nil {
				report.GateFailures = append(report.GateFailures, fmt.Sprintf("arming %s: %v", ph.Name, err))
			}
		default:
			if err := ctl.SetFaults(""); err != nil {
				report.GateFailures = append(report.GateFailures, fmt.Sprintf("clearing faults for %s: %v", ph.Name, err))
			}
		}
		phaseDur := time.Duration(float64(cfg.dur) * ph.Frac)
		if ph.Name == "recovery" {
			// The recovery gate: probe warm p50 until it clears or the
			// window expires, then sit out the rest of the phase.
			cleared := time.Now()
			p50, when := s.probeRecovery(ctx, admin, cleared)
			report.RecoveryP50us = float64(p50) / float64(time.Microsecond)
			if when >= 0 {
				report.RecoveredInS = when.Seconds()
			}
		}
		if rest := phaseDur - time.Since(t0); rest > 0 {
			time.Sleep(rest)
		}
		report.Phases = append(report.Phases, phaseStats{
			Name: ph.Name, Ops: s.phaseOps[i].Load(), Errors: s.phaseErr[i].Load(),
			Elapsed: time.Since(t0).Seconds(),
		})
	}
	s.stop.Store(true)
	wg.Wait()

	report.TotalOps = s.ops.Load()
	report.Success = s.success.Load()
	report.Recovered = s.recovered.Load()
	report.Failed = s.failed.Load()
	report.Mismatches = s.mismatches.Load()
	report.MismatchSample = s.mismatchSample
	report.FailedByClass = s.failedByClass
	for _, cl := range clients {
		st := cl.Stats()
		report.ClientRetries += st.Retries
		report.BreakerTrips += st.BreakerTrips
	}
	if report.TotalOps > 0 {
		report.SuccessRatePct = 100 * float64(report.Success+report.Recovered) / float64(report.TotalOps)
	}

	// Verdicts.
	if report.Mismatches > 0 {
		report.GateFailures = append(report.GateFailures,
			fmt.Sprintf("%d bit-incorrect payloads (first: %s)", report.Mismatches, report.MismatchSample))
	}
	if want := 100 - cfg.budgetPct; report.SuccessRatePct < want {
		report.GateFailures = append(report.GateFailures,
			fmt.Sprintf("success rate %.3f%% below the %.3f%% budget floor", report.SuccessRatePct, want))
	}
	if report.RecoveredInS < 0 {
		report.GateFailures = append(report.GateFailures,
			fmt.Sprintf("warm p50 never recovered under %v within %v of the last fault (last probe p50 %.1fus)",
				cfg.p50Gate, cfg.recoverWithin, report.RecoveryP50us))
	}
	return report, nil
}

// probeRecovery polls the warm point-query p50 (bursts of 30) until it
// clears the gate or the window expires. Returns the last measured p50
// and how long recovery took (-1 = never within the window).
func (s *soak) probeRecovery(ctx context.Context, cl *eedclient.Client, cleared time.Time) (time.Duration, time.Duration) {
	node := s.names[len(s.names)-1]
	deadline := cleared.Add(s.cfg.recoverWithin)
	var lastP50 time.Duration
	for {
		lats := make([]time.Duration, 0, 30)
		for i := 0; i < 30; i++ {
			t0 := time.Now()
			if _, err := cl.Delay(ctx, eedclient.DelayRequest{Net: s.shared, Node: node}); err == nil {
				lats = append(lats, time.Since(t0))
			}
		}
		if len(lats) > 0 {
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			lastP50 = obs.Percentile(lats, 50)
			if lastP50 <= s.cfg.p50Gate {
				return lastP50, time.Since(cleared)
			}
		}
		if time.Now().After(deadline) {
			return lastP50, -1
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func renderText(r *chaosReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "eedchaos: %s against %s (%s), %d workers, %.1fs soak, seed %d\n",
		r.Net, r.Addr, r.Mode, r.Concurrency, r.DurationS, r.Seed)
	fmt.Fprintf(&b, "%-14s %10s %10s %10s\n", "phase", "ops", "errors", "elapsed")
	for _, ph := range r.Phases {
		fmt.Fprintf(&b, "%-14s %10d %10d %9.1fs\n", ph.Name, ph.Ops, ph.Errors, ph.Elapsed)
	}
	fmt.Fprintf(&b, "\ntotal %d ops: %d ok, %d recovered, %d failed (%.3f%% success, budget %.3f%%)\n",
		r.TotalOps, r.Success, r.Recovered, r.Failed, r.SuccessRatePct, r.BudgetPct)
	if len(r.FailedByClass) > 0 {
		classes := make([]string, 0, len(r.FailedByClass))
		for cls := range r.FailedByClass {
			classes = append(classes, cls)
		}
		sort.Strings(classes)
		b.WriteString("failures by class:")
		for _, cls := range classes {
			fmt.Fprintf(&b, " %s=%d", cls, r.FailedByClass[cls])
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "client: %d retries, %d breaker trips\n", r.ClientRetries, r.BreakerTrips)
	fmt.Fprintf(&b, "bit-incorrect payloads: %d\n", r.Mismatches)
	if r.RecoveredInS >= 0 {
		fmt.Fprintf(&b, "recovery: warm p50 %.1fus (gate %.1fus) after %.2fs\n", r.RecoveryP50us, r.P50GateUs, r.RecoveredInS)
	} else {
		fmt.Fprintf(&b, "recovery: NEVER (last p50 %.1fus, gate %.1fus)\n", r.RecoveryP50us, r.P50GateUs)
	}
	if len(r.GateFailures) == 0 {
		b.WriteString("verdict: PASS\n")
	} else {
		fmt.Fprintf(&b, "verdict: FAIL (%s)\n", strings.Join(r.GateFailures, "; "))
	}
	return b.String()
}
