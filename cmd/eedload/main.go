// Command eedload is the load generator for the eedd delay service. It
// drives a mixed request stream (point queries, whole-tree sweeps,
// edits, batches; -mix) at a server while walking a phase schedule,
// checks every successful payload bit for bit against direct core
// analysis, and prints one report: per-phase ops and errors, per-op
// latency percentiles, failed and healed ops by op and class, client
// retries, bit-incorrect payloads and the verdict.
//
// A failed op is healed once: a 404 (the registry lost the net to an
// eviction or a restart) registers the net again, a 5xx or transport
// error waits for the server's health, and the op is retried; a failed
// edit is not re-sent, its heal re-registers the replica instead.
//
// The steady schedule (the default) is one clean phase of single
// attempts with the client's breaker off, so the latencies describe the
// server, and so does -budget: a healed failure still counts against it.
// The chaos schedule (-chaos) walks the server through the injected
// fault families and a restart, then probes recovery; the client retries
// under capped backoff behind a breaker, and -budget counts only the ops
// the heal could not save. -assert-warm-p50 bounds the run's point-query
// p50 (steady) or the recovery probe's (chaos, where it is required).
// The run exits 1 when a payload is bit-incorrect or the -budget or p50
// gate fails; 2 on a usage error.
//
// Without -addr or -eedd the server runs in process on a loopback
// listener, and a chaos restart bounces the listener. -eedd spawns that
// daemon binary and restarts it with SIGTERM. -addr drives a running
// daemon, which eedload cannot restart, so -chaos rejects it.
//
// Point queries, sweeps and batches share one warm resident of -net.
// Each worker edits a private variant with one extra stub section under
// the root (an edit re-keys its net, so a shared net would move out from
// under the readers), and a local replica of the variant is the edit
// oracle.
//
// Usage:
//
//	eedload -net examples/nets/line64.tree [-d 10s] [-c 8] \
//	        [-mix delay=90,analyze=5,edit=5] [-assert-warm-p50 1ms]
//	eedload -chaos -eedd ./eedd -net examples/nets/line64.tree \
//	        -assert-warm-p50 5ms [-seed 7] [-budget 1] [-recover-within 5s]
package main

import (
	"bufio"
	"bytes"
	"cmp"
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
	"slices"
	"sort"
	"strconv"
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
	"eedtree/internal/guard"
	"eedtree/internal/obs"
	"eedtree/internal/rlctree"
)

func main() {
	os.Exit(realMain())
}

var opNames = []string{"delay", "analyze", "edit", "batch"}

// phase is one segment of a schedule. Spec is the faultinj plan armed
// for the phase; an empty spec clears it. The restart phase restarts the
// server instead.
type phase struct {
	Name    string
	Frac    float64
	Spec    string
	Restart bool
}

// steadySchedule is one clean phase over the whole run.
var steadySchedule = []phase{{Name: "steady", Frac: 1}}

// chaosSchedule ramps from a clean baseline through every fault point,
// restarts the server, then measures recovery.
func chaosSchedule(seed int64) []phase {
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
	addr          string // a running daemon; "" = start one
	eeddPath      string // a daemon binary to spawn; "" = in-process server
	chaos         bool
	dur           time.Duration
	conc          int
	mix           map[string]int
	seed          int64
	budgetPct     float64
	warmP50       time.Duration // 0 = no bound
	recoverWithin time.Duration
}

func realMain() int {
	var cfg config
	flag.StringVar(&cfg.netFile, "net", "", "tree file driven at the server (rlctree text format; required)")
	flag.StringVar(&cfg.addr, "addr", "", "base URL of a running eedd (empty = start a server)")
	flag.StringVar(&cfg.eeddPath, "eedd", "", "eedd binary to spawn, and restart with SIGTERM under -chaos (empty = in-process server)")
	flag.BoolVar(&cfg.chaos, "chaos", false, "run the chaos schedule: fault phases, a restart and a recovery probe")
	flag.DurationVar(&cfg.dur, "d", 10*time.Second, "run duration")
	flag.IntVar(&cfg.conc, "c", 8, "concurrent client workers")
	mixFlag := flag.String("mix", "delay=90,analyze=5,edit=5", "operation weights: delay,analyze,edit,batch")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the fault plans and the workers' draws")
	flag.Float64Var(&cfg.budgetPct, "budget", 1, "max percent of ops that may fail: at the first attempt (steady) or after healing (chaos)")
	flag.DurationVar(&cfg.warmP50, "assert-warm-p50", 0, "bound on the warm point-query p50: the run's (steady; 0 = none) or the recovery probe's (chaos; required)")
	flag.DurationVar(&cfg.recoverWithin, "recover-within", 5*time.Second, "how long a heal waits for health, and how soon the chaos recovery probe must clear the p50 bound")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: eedload -net <tree-file> [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 0 || cfg.netFile == "" || cfg.dur <= 0 || cfg.conc <= 0 || cfg.budgetPct < 0 ||
		cfg.warmP50 < 0 || cfg.recoverWithin <= 0 || (cfg.addr != "" && cfg.eeddPath != "") {
		flag.Usage()
		return 2
	}
	if cfg.chaos && (cfg.addr != "" || cfg.warmP50 == 0) {
		fmt.Fprintf(os.Stderr, "eedload: -chaos needs a server it can restart (-eedd or in process, not -addr) and an -assert-warm-p50 bound for its recovery probe\n")
		return 2
	}
	var err error
	if cfg.mix, err = parseMix(*mixFlag); err != nil {
		fmt.Fprintf(os.Stderr, "eedload: -mix: %v\n", err)
		flag.Usage()
		return 2
	}

	r, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eedload: [%s] %v\n", guard.ClassName(err), err)
		return 1
	}
	fmt.Print(r.render())
	for _, g := range r.Gates {
		fmt.Fprintf(os.Stderr, "eedload: GATE FAILED: %s\n", g)
	}
	if len(r.Gates) > 0 {
		return 1
	}
	return 0
}

func parseMix(s string) (map[string]int, error) {
	mix := map[string]int{}
	total := 0
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		name, valStr, ok := strings.Cut(kv, "=")
		if !ok || !slices.Contains(opNames, name) {
			return nil, fmt.Errorf("bad term %q (want op=weight with op in %v)", kv, opNames)
		}
		v, err := strconv.Atoi(valStr)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad weight %q", valStr)
		}
		mix[name] = v
		total += v
	}
	if total == 0 {
		return nil, fmt.Errorf("mix %q has zero total weight", s)
	}
	return mix, nil
}

// server is where the load goes and how to kill and resurrect it. Its
// faults are armed through its /v1/faults endpoint.
type server interface {
	Base() string
	Restart() error
	Close()
}

// remote is a daemon eedload did not start: it takes load only.
type remote string

func (r remote) Base() string { return string(r) }
func (remote) Restart() error { return errors.New("a remote daemon cannot be restarted") }
func (remote) Close()         {}

type inprocCtl struct {
	addr    string
	httpSrv *http.Server
	srv     *eedsrv.Server
}

func newInprocCtl() (*inprocCtl, error) {
	c := &inprocCtl{addr: "127.0.0.1:0"}
	return c, c.start()
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
	// discard its stack-trace logging: the run counts them as transport
	// errors, and the traces are noise.
	c.httpSrv = &http.Server{
		Handler:  c.srv.Handler(),
		ErrorLog: log.New(io.Discard, "", 0),
	}
	go c.httpSrv.Serve(ln)
	return nil
}

func (c *inprocCtl) Base() string { return "http://" + c.addr }

// Restart bounces the listener the way a real restart would: drain,
// shut down, then a fresh server (empty registry, cold sessions) on the
// same address. The fault plan does not survive, and neither would a
// real process's.
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

type procCtl struct {
	path string
	addr string
	cmd  *exec.Cmd
}

var listenRe = regexp.MustCompile(`listening on (http://([^/\s]+))/`)

func newProcCtl(path string) (*procCtl, error) {
	c := &procCtl{path: path, addr: "127.0.0.1:0"}
	return c, c.start()
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

// sameResult compares two wire results bit for bit: float fields via
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

// showResult renders a wire result by value for a mismatch report, with
// "-" for an absent optional field.
func showResult(r *eedsrv.NodeResult) string {
	if r == nil {
		return "no result"
	}
	opt := func(p *float64) string {
		if p == nil {
			return "-"
		}
		return fmt.Sprint(*p)
	}
	return fmt.Sprintf("{node:%s zeta:%s omega_n:%s delay50:%v rise:%v overshoot:%v settle:%s elmore50:%v elmore_rise:%v degraded:%v degraded_class:%s}",
		r.Node, opt(r.Zeta), opt(r.OmegaN), r.Delay50, r.Rise, r.Overshoot, opt(r.Settle),
		r.Elmore50, r.ElmoreRise, r.Degraded, cmp.Or(r.DegradedClass, "-"))
}

// oracleFor computes the ground-truth wire results for a tree with the
// core analyzer directly: no engine sessions, no fault points, no HTTP.
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

// failureClass names an unrecovered failure for the report: the class
// the server sent, else its HTTP status, else "transport". A breaker
// refusal carries the class and status of the failure that opened the
// breaker, so it is recognized by its sentinel first.
func failureClass(err error) string {
	var ce *eedclient.Error
	switch {
	case !errors.As(err, &ce):
		return "transport"
	case errors.Is(ce.Err, eedclient.ErrBreakerOpen):
		return "breaker_open"
	case ce.Class != "":
		return ce.Class
	case ce.Status != 0:
		return "http_" + strconv.Itoa(ce.Status)
	}
	return "transport"
}

// load is the state every worker reads: the shared net, its oracle, and
// the schedule's position.
type load struct {
	cfg     config
	ctx     context.Context
	base    string
	shared  string // the shared net's fingerprint; its content never changes
	text    string
	names   []string
	byName  map[string]eedsrv.NodeResult
	ordered []eedsrv.NodeResult

	phase atomic.Int32
	stop  atomic.Bool
}

// worker is one load generator: a client, its shuffled deck, the private
// variant it edits, and a measurement sink merged after the run, never
// shared.
type worker struct {
	*load
	cl   *eedclient.Client
	rng  *rand.Rand
	deck []string

	replica *rlctree.Tree // the edited variant as the server must hold it
	stub    string        // the variant's extra section, the one edited
	cur     string        // the variant's fingerprint on the server

	lat       map[string][]time.Duration // first-attempt successes
	failed    map[string]int             // "op:class" → unrecovered failures
	healed    map[string]int             // "op:class" → failures the heal recovered
	phaseOps  []int
	phaseFail []int
	mismatches
}

func (l *load) newWorker(w int, phases int) (*worker, error) {
	opts := eedclient.Options{BaseURL: l.base, Seed: l.cfg.seed*100 + int64(w)}
	if l.cfg.chaos {
		opts.RequestTimeout, opts.MaxRetries = 5*time.Second, 4
		opts.BackoffCap, opts.BreakerCooldown = 500*time.Millisecond, 300*time.Millisecond
	} else {
		// One attempt and no breaker: the latencies describe the server.
		opts.MaxRetries, opts.BreakerThreshold = -1, -1
	}
	cl, err := eedclient.New(opts)
	if err != nil {
		return nil, err
	}
	wk := &worker{load: l, cl: cl, rng: rand.New(rand.NewSource(l.cfg.seed*1000 + int64(w))),
		stub: fmt.Sprintf("zz%d", w), lat: map[string][]time.Duration{}, failed: map[string]int{},
		healed: map[string]int{}, phaseOps: make([]int, phases), phaseFail: make([]int, phases)}
	// A weight-proportional deck each worker shuffles with its own seed:
	// the op order differs per worker, the realized mix is exact.
	for _, name := range opNames {
		for i := 0; i < l.cfg.mix[name]; i++ {
			wk.deck = append(wk.deck, name)
		}
	}
	wk.rng.Shuffle(len(wk.deck), func(i, j int) { wk.deck[i], wk.deck[j] = wk.deck[j], wk.deck[i] })
	if l.cfg.mix["edit"] > 0 {
		if wk.replica, err = rlctree.Parse(strings.NewReader(l.text)); err != nil {
			return nil, err
		}
		if _, err = wk.replica.AddSection(wk.stub, wk.replica.Roots()[0], float64(w+1), 1e-9, 10e-15); err != nil {
			return nil, err
		}
		if err := wk.resync(); err != nil {
			return nil, fmt.Errorf("register worker %d's variant: %w", w, err)
		}
	}
	return wk, nil
}

func (w *worker) run() {
	for i := 0; !w.stop.Load(); i++ {
		w.do(w.deck[i%len(w.deck)])
	}
}

// do runs one op. The latency is taken before the payload is checked, so
// verification is not measured; a failure gets one heal.
func (w *worker) do(kind string) {
	ph := w.phase.Load()
	w.phaseOps[ph]++
	call, check := w.op(kind)
	t0 := time.Now()
	err := call()
	if err == nil {
		w.lat[kind] = append(w.lat[kind], time.Since(t0))
		w.note(check())
		return
	}
	register := func() error {
		_, err := w.cl.Register(w.ctx, w.text)
		return err
	}
	retry := func() error {
		if err := call(); err != nil {
			return err
		}
		w.note(check())
		return nil
	}
	if kind == "edit" {
		// A failed edit may or may not have applied, so it is not sent
		// again: its heal registers the replica's content instead, which
		// puts the server back on known content either way.
		register, retry = func() error { return nil }, w.resync
	}
	if w.heal(err, register, retry) {
		w.healed[kind+":"+failureClass(err)]++
		return
	}
	w.noteFailure(ph, kind, err)
}

// noteFailure books an unrecovered failure against its phase and its
// "op:class" tally.
func (w *worker) noteFailure(ph int32, kind string, err error) {
	w.phaseFail[ph]++
	w.failed[kind+":"+failureClass(err)]++
}

// op builds one draw of kind: call sends the request, and check, run
// only after call succeeded, compares the payload with the oracle and
// returns a description of the first difference, or "".
func (w *worker) op(kind string) (call func() error, check func() string) {
	switch kind {
	case "delay":
		node := w.names[w.rng.Intn(len(w.names))]
		var resp eedclient.DelayResponse
		call = func() (err error) {
			resp, err = w.cl.Delay(w.ctx, eedclient.DelayRequest{Net: w.shared, Node: node})
			return err
		}
		check = func() string { return w.checkDelay(node, resp.Result) }
	case "analyze":
		var resp eedclient.AnalyzeResponse
		call = func() (err error) {
			resp, err = w.cl.Analyze(w.ctx, eedclient.AnalyzeRequest{Net: w.shared})
			return err
		}
		check = func() string {
			if len(resp.Nodes) != len(w.ordered) {
				return fmt.Sprintf("analyze: %d nodes, want %d", len(resp.Nodes), len(w.ordered))
			}
			for i, want := range w.ordered {
				if !sameResult(resp.Nodes[i], want) {
					return fmt.Sprintf("analyze node %s: got %s want %s", want.Node, showResult(&resp.Nodes[i]), showResult(&want))
				}
			}
			return ""
		}
	case "batch":
		items := make([]eedclient.BatchItem, 8)
		for j := range items {
			items[j] = eedclient.BatchItem{Net: w.shared, Node: w.names[w.rng.Intn(len(w.names))]}
		}
		var resp eedclient.BatchResponse
		call = func() (err error) {
			if resp, err = w.cl.Batch(w.ctx, eedclient.BatchRequest{Items: items}); err != nil {
				return err
			}
			// A failed item fails the op, so it is healed and classed
			// like a failed request.
			for _, it := range resp.Results {
				if it.Error != nil {
					return &eedclient.Error{Op: "batch", Status: it.Error.Status, Class: it.Error.Class, Message: it.Error.Message}
				}
			}
			return nil
		}
		check = func() string {
			if len(resp.Results) != len(items) {
				return fmt.Sprintf("batch: %d results, want %d", len(resp.Results), len(items))
			}
			for j, it := range resp.Results {
				if want := w.byName[items[j].Node]; it.Result == nil || !sameResult(*it.Result, want) {
					return fmt.Sprintf("batch item %d (%s): got %s want %s", j, items[j].Node, showResult(it.Result), showResult(&want))
				}
			}
			return ""
		}
	case "edit":
		sec := w.replica.Section(w.stub)
		val := sec.C() + 1e-18
		var resp eedclient.EditResponse
		call = func() (err error) {
			resp, err = w.cl.Edit(w.ctx, eedclient.EditRequest{
				Net:   w.cur,
				Edits: []eedclient.EditSpec{{Node: w.stub, Elem: "C", Value: val}},
				Node:  w.stub,
			})
			return err
		}
		// Only a confirmed edit advances the replica.
		check = func() string {
			if err := sec.SetC(val); err != nil {
				return fmt.Sprintf("edit replica: %v", err)
			}
			w.cur = resp.Net
			if want := fpHex(w.replica); resp.Net != want {
				return fmt.Sprintf("edit fingerprint: got %s want %s", resp.Net, want)
			}
			byName, _, err := oracleFor(w.replica)
			if err != nil {
				return fmt.Sprintf("edit oracle: %v", err)
			}
			if want := byName[w.stub]; !sameResult(resp.Result, want) {
				return fmt.Sprintf("edit result %s: got %s want %s", w.stub, showResult(&resp.Result), showResult(&want))
			}
			return ""
		}
	}
	return call, check
}

// resync registers the replica's content. Format→Parse is bit-exact
// (unit.Format checks every rendering against math.Float64bits), so the
// server must then hold exactly the replica, under its fingerprint.
func (w *worker) resync() error {
	info, err := w.cl.Register(w.ctx, w.replica.Format())
	if err != nil {
		return err
	}
	if want := fpHex(w.replica); info.Net != want {
		w.note(fmt.Sprintf("register fingerprint: got %s want %s", info.Net, want))
	}
	w.cur = info.Net
	return nil
}

// heal retries a failed op once. A 404 means the registry lost the op's
// net (an eviction or a restart), so the net is registered again first;
// a 5xx or transport error waits for the server's health first. Any
// other failure is final.
func (w *worker) heal(err error, register, retry func() error) bool {
	var ce *eedclient.Error
	switch {
	case !errors.As(err, &ce):
		return false
	case ce.Status == http.StatusNotFound:
		return register() == nil && retry() == nil
	case ce.Status == 0 || ce.Status >= 500:
		return w.healthy() && retry() == nil
	}
	return false
}

// healthy waits up to -recover-within for the server to report ok.
func (w *worker) healthy() bool {
	deadline := time.Now().Add(w.cfg.recoverWithin)
	for time.Now().Before(deadline) && !w.stop.Load() {
		if h, err := w.cl.Health(w.ctx); err == nil && h.Status == "ok" {
			return true
		}
		time.Sleep(50 * time.Millisecond)
	}
	return false
}

// mismatches counts bit-incorrect payloads and keeps the first.
type mismatches struct {
	Mismatches     int
	MismatchSample string
}

func (m *mismatches) note(desc string) {
	if desc != "" {
		m.Mismatches++
		if m.MismatchSample == "" {
			m.MismatchSample = desc
		}
	}
}

// checkDelay compares a served point query with the oracle.
func (l *load) checkDelay(node string, got eedsrv.NodeResult) string {
	if want := l.byName[node]; !sameResult(got, want) {
		return fmt.Sprintf("delay %s: got %s want %s", node, showResult(&got), showResult(&want))
	}
	return ""
}

// phaseStats is one phase's share of the run.
type phaseStats struct {
	Name        string
	Ops, Errors int // Errors: unrecovered failures
	Elapsed     time.Duration
}

// opStats is one op kind's first-attempt successes and their latency
// percentiles.
type opStats struct {
	OK            int
	P50, P90, P99 time.Duration
}

type report struct {
	cfg        config
	Mode, Base string
	Sections   int
	Phases     []phaseStats
	Ops        map[string]opStats

	Total, Recovered, Failed int
	FailedByClass            map[string]int // "op:class" → unrecovered failures
	HealedByClass            map[string]int // "op:class" → failures the heal recovered
	SuccessPct               float64
	Retries, BreakerTrips    uint64
	mismatches

	// WarmP50 is the run's point-query p50 (steady) or the recovery
	// probe's last (chaos); RecoveredIn is how long into the recovery
	// phase the probe cleared the bound, -1 if it never did.
	WarmP50     time.Duration
	RecoveredIn time.Duration
	Gates       []string // the gates that failed; none = PASS
}

func run(cfg config) (*report, error) {
	text, err := os.ReadFile(cfg.netFile)
	if err != nil {
		return nil, err
	}
	tree, err := rlctree.Parse(bytes.NewReader(text))
	if err != nil {
		return nil, err
	}
	if len(tree.Roots()) == 0 {
		return nil, fmt.Errorf("net %q has no root section", cfg.netFile)
	}
	byName, ordered, err := oracleFor(tree)
	if err != nil {
		return nil, err
	}

	var srv server
	mode := "in-process"
	switch {
	case cfg.addr != "":
		srv, mode = remote(cfg.addr), "remote"
	case cfg.eeddPath != "":
		mode = "daemon"
		if srv, err = newProcCtl(cfg.eeddPath); err != nil {
			return nil, err
		}
	default:
		if srv, err = newInprocCtl(); err != nil {
			return nil, err
		}
	}
	defer srv.Close()

	ctx := context.Background()
	r := &report{cfg: cfg, Mode: mode, Base: srv.Base(), Sections: tree.Len(),
		Ops: map[string]opStats{}, FailedByClass: map[string]int{}, HealedByClass: map[string]int{}, RecoveredIn: -1}
	admin, err := eedclient.New(eedclient.Options{BaseURL: r.Base, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	info, err := admin.Register(ctx, string(text))
	if err != nil {
		return nil, fmt.Errorf("register %s: %w", cfg.netFile, err)
	}
	l := &load{cfg: cfg, ctx: ctx, base: r.Base, shared: info.Net, text: string(text), byName: byName, ordered: ordered}
	for _, sec := range tree.Sections() {
		l.names = append(l.names, sec.Name())
	}
	// Warm the shared session before the clock starts.
	sink := l.names[len(l.names)-1]
	for i := 0; i < 50; i++ {
		resp, err := admin.Delay(ctx, eedclient.DelayRequest{Net: info.Net, Node: sink})
		if err != nil {
			return nil, fmt.Errorf("warmup query failed: %w", err)
		}
		r.note(l.checkDelay(sink, resp.Result))
	}

	phases := steadySchedule
	if cfg.chaos {
		phases = chaosSchedule(cfg.seed)
	}
	workers := make([]*worker, cfg.conc)
	for w := range workers {
		if workers[w], err = l.newWorker(w, len(phases)); err != nil {
			return nil, err
		}
	}
	var wg sync.WaitGroup
	for _, wk := range workers {
		wg.Add(1)
		go func() { defer wg.Done(); wk.run() }()
	}

	// The controller walks the schedule while the workers run.
	armed := ""
	for i, ph := range phases {
		l.phase.Store(int32(i))
		t0 := time.Now()
		if ph.Spec != armed {
			if _, err := admin.SetFaults(ctx, ph.Spec); err != nil {
				r.Gates = append(r.Gates, fmt.Sprintf("arming %s: %v", ph.Name, err))
			}
			armed = ph.Spec
		}
		if ph.Restart {
			if err := srv.Restart(); err != nil {
				r.Gates = append(r.Gates, fmt.Sprintf("restart: %v", err))
			}
		}
		if ph.Name == "recovery" {
			l.probeRecovery(admin, r)
		}
		if rest := time.Duration(float64(cfg.dur)*ph.Frac) - time.Since(t0); rest > 0 {
			time.Sleep(rest)
		}
		r.Phases = append(r.Phases, phaseStats{Name: ph.Name, Elapsed: time.Since(t0)})
	}
	l.stop.Store(true)
	wg.Wait()

	lat := map[string][]time.Duration{}
	for _, wk := range workers {
		st := wk.cl.Stats()
		r.Retries += st.Retries
		r.BreakerTrips += st.BreakerTrips
		r.Mismatches += wk.Mismatches
		if r.MismatchSample == "" {
			r.MismatchSample = wk.MismatchSample
		}
		for i := range r.Phases {
			r.Phases[i].Ops += wk.phaseOps[i]
			r.Phases[i].Errors += wk.phaseFail[i]
		}
		for k, n := range wk.failed {
			r.FailedByClass[k] += n
		}
		for k, n := range wk.healed {
			r.HealedByClass[k] += n
			r.Recovered += n
		}
		for name, d := range wk.lat {
			lat[name] = append(lat[name], d...)
		}
	}
	for _, ph := range r.Phases {
		r.Total += ph.Ops
		r.Failed += ph.Errors
	}
	for name, all := range lat {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		r.Ops[name] = opStats{OK: len(all), P50: obs.Percentile(all, 50), P90: obs.Percentile(all, 90), P99: obs.Percentile(all, 99)}
	}
	if failed := r.Failed; r.Total > 0 {
		// A steady request is a single attempt, so a failure the heal
		// recovered still counts: the gate describes the server.
		if !cfg.chaos {
			failed += r.Recovered
		}
		r.SuccessPct = 100 * float64(r.Total-failed) / float64(r.Total)
	}

	// The verdict.
	if r.Mismatches > 0 {
		r.Gates = append(r.Gates, fmt.Sprintf("%d bit-incorrect payloads (first: %s)", r.Mismatches, r.MismatchSample))
	}
	if floor := 100 - cfg.budgetPct; r.SuccessPct < floor {
		r.Gates = append(r.Gates, fmt.Sprintf("success rate %.3f%% below the %.3f%% floor", r.SuccessPct, floor))
	}
	switch {
	case cfg.chaos:
		if r.RecoveredIn < 0 {
			r.Gates = append(r.Gates, fmt.Sprintf("warm p50 never recovered under %v within %v (last probe p50 %v)",
				cfg.warmP50, cfg.recoverWithin, r.WarmP50))
		}
	case r.Ops["delay"].OK > 0:
		r.WarmP50 = r.Ops["delay"].P50
		if cfg.warmP50 > 0 && r.WarmP50 > cfg.warmP50 {
			r.Gates = append(r.Gates, fmt.Sprintf("warm point-query p50 %v exceeds the %v bound", r.WarmP50, cfg.warmP50))
		}
	case cfg.warmP50 > 0:
		r.Gates = append(r.Gates, "-assert-warm-p50: no successful delay ops to bound")
	}
	return r, nil
}

// probeRecovery measures the warm point-query p50 in bursts of 30 until
// it is within the -assert-warm-p50 bound or -recover-within has passed,
// and books the result in r.
func (l *load) probeRecovery(cl *eedclient.Client, r *report) {
	node := l.names[len(l.names)-1]
	start := time.Now()
	for {
		lats := make([]time.Duration, 0, 30)
		for i := 0; i < 30; i++ {
			t0 := time.Now()
			if resp, err := cl.Delay(l.ctx, eedclient.DelayRequest{Net: l.shared, Node: node}); err == nil {
				lats = append(lats, time.Since(t0))
				r.note(l.checkDelay(node, resp.Result))
			}
		}
		if len(lats) > 0 {
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			r.WarmP50 = obs.Percentile(lats, 50)
			if r.WarmP50 <= l.cfg.warmP50 {
				r.RecoveredIn = time.Since(start)
				return
			}
		}
		if time.Since(start) > l.cfg.recoverWithin {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func (r *report) render() string {
	var b strings.Builder
	schedule, success := "steady", "first-attempt success"
	if r.cfg.chaos {
		schedule, success = "chaos", "success after healing"
	}
	fmt.Fprintf(&b, "eedload: %s schedule, %s (%d sections) against %s (%s)\n", schedule, r.cfg.netFile, r.Sections, r.Base, r.Mode)
	fmt.Fprintf(&b, "%d workers, %v, mix %v, seed %d\n\n", r.cfg.conc, r.cfg.dur, r.cfg.mix, r.cfg.seed)
	fmt.Fprintf(&b, "%-14s %10s %10s %10s\n", "phase", "ops", "errors", "elapsed")
	for _, ph := range r.Phases {
		fmt.Fprintf(&b, "%-14s %10d %10d %9.1fs\n", ph.Name, ph.Ops, ph.Errors, ph.Elapsed.Seconds())
	}
	fmt.Fprintf(&b, "\n%-8s %10s %10s %10s %10s\n", "op", "ok", "p50[us]", "p90[us]", "p99[us]")
	for _, name := range opNames {
		if st, ok := r.Ops[name]; ok {
			fmt.Fprintf(&b, "%-8s %10d %10.1f %10.1f %10.1f\n", name, st.OK, us(st.P50), us(st.P90), us(st.P99))
		}
	}
	fmt.Fprintf(&b, "\ntotal %d ops (%.0f ops/s): %d ok, %d recovered, %d failed (%.3f%% %s, budget %.3f%%)\n",
		r.Total, float64(r.Total)/r.cfg.dur.Seconds(), r.Total-r.Recovered-r.Failed, r.Recovered, r.Failed,
		r.SuccessPct, success, r.cfg.budgetPct)
	tally := func(label string, m map[string]int) {
		var terms []string
		for k, n := range m {
			terms = append(terms, fmt.Sprintf(" %s=%d", k, n))
		}
		sort.Strings(terms)
		if len(terms) > 0 {
			b.WriteString(label + ":" + strings.Join(terms, "") + "\n")
		}
	}
	tally("failures by class", r.FailedByClass)
	tally("healed by class", r.HealedByClass)
	fmt.Fprintf(&b, "client: %d retries, %d breaker trips\n", r.Retries, r.BreakerTrips)
	fmt.Fprintf(&b, "bit-incorrect payloads: %d\n", r.Mismatches)
	bound := "no bound"
	if r.cfg.warmP50 > 0 {
		bound = "bound " + r.cfg.warmP50.String()
	}
	switch {
	case !r.cfg.chaos:
		fmt.Fprintf(&b, "warm point-query p50: %.1fus (%s)\n", us(r.WarmP50), bound)
	case r.RecoveredIn >= 0:
		fmt.Fprintf(&b, "recovery: warm p50 %.1fus (%s) after %.2fs\n", us(r.WarmP50), bound, r.RecoveredIn.Seconds())
	default:
		fmt.Fprintf(&b, "recovery: NEVER (last p50 %.1fus, %s)\n", us(r.WarmP50), bound)
	}
	if len(r.Gates) == 0 {
		b.WriteString("verdict: PASS\n")
	} else {
		fmt.Fprintf(&b, "verdict: FAIL (%s)\n", strings.Join(r.Gates, "; "))
	}
	return b.String()
}
