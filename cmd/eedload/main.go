// Command eedload is the load harness for the eedd delay service: it
// drives a mixed request stream (point queries, whole-tree sweeps,
// incremental edits, batches) at a server for a fixed duration and
// prints per-operation latency percentiles, total throughput and a
// per-guard-class error breakdown. -assert-warm-p50 turns the warm
// point-query p50 into an exit status.
//
// With -addr it targets a running daemon; without it the harness starts
// an in-process server on a loopback listener, so the numbers still
// include the full HTTP/JSON wire cost but need no separate process.
//
// Requests go through internal/eedclient, the service's resilient typed
// client. By default retries and the circuit breaker are OFF (-retries 0)
// so the measured latencies are single-attempt wire truth; -retries N
// enables the client's backoff loop (and breaker), which is the right
// mode when driving a deliberately faulty server.
//
// The stream runs over one registered net (-net, the rlctree text
// format). Point queries and sweeps share the warm resident; each
// edit-mix worker owns a private variant of the net — edits change the
// content fingerprint, so a shared net would be re-keyed out from under
// the readers (see internal/eedsrv).
//
// Usage:
//
//	eedload -net examples/nets/line64.tree [-d 30s] [-c 8] \
//	        [-mix delay=90,analyze=5,edit=5] [-retries 0] [-assert-warm-p50 1ms]
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"eedtree/internal/eedclient"
	"eedtree/internal/eedsrv"
	"eedtree/internal/engine"
	"eedtree/internal/guard"
	"eedtree/internal/obs"
	"eedtree/internal/rlctree"
)

func main() {
	os.Exit(realMain())
}

var opNames = []string{"delay", "analyze", "edit", "batch"}

type opStats struct {
	CountN        int
	ErrorsByClass map[string]int
	P50us         float64
	P90us         float64
	P99us         float64
	Maxus         float64
	Throughpt     float64
}

type benchReport struct {
	Net           string
	Sections      int
	Addr          string
	InProcess     bool
	DurationS     float64
	Concurrency   int
	Mix           map[string]int
	MaxRetries    int
	TotalRequests int
	TotalErrors   int
	TotalRetries  uint64
	Throughput    float64
	Ops           map[string]opStats
}

func realMain() int {
	netFile := flag.String("net", "", "tree file driven at the server (rlctree text format; required)")
	addr := flag.String("addr", "", "base URL of a running eedd (empty = start an in-process server)")
	dur := flag.Duration("d", 10*time.Second, "measured load duration")
	conc := flag.Int("c", 8, "concurrent client workers")
	mixFlag := flag.String("mix", "delay=90,analyze=5,edit=5", "operation weights: delay,analyze,edit,batch")
	retries := flag.Int("retries", 0, "client retry budget per request (0 = single attempt, breaker off: pure measurement)")
	assertWarmP50 := flag.Duration("assert-warm-p50", 0, "fail (exit 1) if the warm point-query p50 exceeds this (0 = no assertion)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: eedload -net <tree-file> [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 0 || *netFile == "" || *dur <= 0 || *conc <= 0 || *retries < 0 {
		flag.Usage()
		return 2
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eedload: -mix: %v\n", err)
		flag.Usage()
		return 2
	}

	report, err := run(*netFile, *addr, *dur, *conc, mix, *retries)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eedload: [%s] %v\n", guard.ClassName(err), err)
		return 1
	}

	fmt.Print(renderText(report))
	if *assertWarmP50 > 0 {
		p50 := time.Duration(report.Ops["delay"].P50us * float64(time.Microsecond))
		if report.Ops["delay"].CountN == 0 {
			fmt.Fprintf(os.Stderr, "eedload: -assert-warm-p50: no delay ops in the mix\n")
			return 1
		}
		if p50 > *assertWarmP50 {
			fmt.Fprintf(os.Stderr, "eedload: warm point-query p50 %v exceeds the %v bound\n", p50, *assertWarmP50)
			return 1
		}
		fmt.Fprintf(os.Stderr, "eedload: warm point-query p50 %v within the %v bound\n", p50, *assertWarmP50)
	}
	return 0
}

func parseMix(s string) (map[string]int, error) {
	known := map[string]bool{}
	for _, n := range opNames {
		known[n] = true
	}
	mix := map[string]int{}
	total := 0
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		name, valStr, ok := strings.Cut(kv, "=")
		if !ok || !known[name] {
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

// worker is one load generator: a resilient client plus its private
// measurement sink. Sinks are merged after the run, never shared.
type worker struct {
	cl      *eedclient.Client
	lat     map[string][]time.Duration
	errs    map[string]int
	byClass map[string]map[string]int
}

func newWorker(base string, seed int64, retries int) (*worker, error) {
	opts := eedclient.Options{BaseURL: base, Seed: seed, MaxRetries: retries}
	if retries == 0 {
		// Pure-measurement mode: one attempt per request, no breaker —
		// the numbers describe the server, not the client's resilience.
		opts.MaxRetries = -1
		opts.BreakerThreshold = -1
	}
	cl, err := eedclient.New(opts)
	if err != nil {
		return nil, err
	}
	return &worker{cl: cl,
		lat:     map[string][]time.Duration{},
		errs:    map[string]int{},
		byClass: map[string]map[string]int{},
	}, nil
}

// record books one finished operation: latency on success, a
// guard-class-keyed error tally on failure.
func (w *worker) record(kind string, t0 time.Time, err error) bool {
	if err == nil {
		w.lat[kind] = append(w.lat[kind], time.Since(t0))
		return true
	}
	w.errs[kind]++
	class := "transport"
	var ce *eedclient.Error
	if errors.As(err, &ce) {
		switch {
		case errors.Is(ce.Err, eedclient.ErrBreakerOpen):
			class = "breaker_open"
		case ce.Class != "":
			class = ce.Class
		case ce.Status != 0:
			class = "http_" + strconv.Itoa(ce.Status)
		}
	}
	m := w.byClass[kind]
	if m == nil {
		m = map[string]int{}
		w.byClass[kind] = m
	}
	m[class]++
	return false
}

func run(netFile, addr string, dur time.Duration, conc int, mix map[string]int, retries int) (*benchReport, error) {
	treeText, err := os.ReadFile(netFile)
	if err != nil {
		return nil, err
	}
	tree, err := rlctree.Parse(bytes.NewReader(treeText))
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, tree.Len())
	for _, sec := range tree.Sections() {
		names = append(names, sec.Name())
	}
	roots := tree.Roots()
	if len(roots) == 0 {
		return nil, fmt.Errorf("net %q has no root section", netFile)
	}
	rootName := roots[0].Name()

	base := addr
	inProc := addr == ""
	if inProc {
		srv := eedsrv.New(eedsrv.Options{Engine: engine.New(engine.Options{})})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		httpSrv := &http.Server{Handler: srv.Handler()}
		go httpSrv.Serve(ln)
		defer httpSrv.Close()
		base = "http://" + ln.Addr().String()
	}
	base = strings.TrimSuffix(base, "/")

	// Register the shared net and warm it before the clock starts.
	ctx := context.Background()
	admin, err := eedclient.New(eedclient.Options{BaseURL: base, Seed: 1})
	if err != nil {
		return nil, err
	}
	info, err := admin.Register(ctx, string(treeText))
	if err != nil {
		return nil, fmt.Errorf("register %s: %w", netFile, err)
	}
	sink := names[len(names)-1]
	for i := 0; i < 50; i++ {
		if _, err := admin.Delay(ctx, eedclient.DelayRequest{Net: info.Net, Node: sink}); err != nil {
			return nil, fmt.Errorf("warmup query failed: %w", err)
		}
	}

	// The schedule: a weight-proportional deck each worker shuffles with
	// its own seed, so the op order differs per worker but the realized
	// mix is exact.
	var deck []string
	for _, name := range opNames {
		for i := 0; i < mix[name]; i++ {
			deck = append(deck, name)
		}
	}

	workers := make([]*worker, conc)
	var wg sync.WaitGroup
	stop := time.Now().Add(dur)
	for w := 0; w < conc; w++ {
		wk, err := newWorker(base, int64(w)+1, retries)
		if err != nil {
			return nil, err
		}
		workers[w] = wk
		wg.Add(1)
		go func(w int, wk *worker) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			myDeck := append([]string(nil), deck...)
			rng.Shuffle(len(myDeck), func(i, j int) { myDeck[i], myDeck[j] = myDeck[j], myDeck[i] })

			// The editor's private variant: the shared tree plus one extra
			// worker-unique stub section hanging off the root, registered
			// through the API like any client tree would be.
			editNet := ""
			editNode := fmt.Sprintf("zz%d", w)
			if mix["edit"] > 0 {
				private := string(treeText) + fmt.Sprintf("%s %s %d 1n 10f\n", editNode, rootName, w+1)
				t0 := time.Now()
				pinfo, err := wk.cl.Register(ctx, private)
				if wk.record("edit_setup", t0, err) {
					editNet = pinfo.Net
				}
			}
			editVal := 10e-15
			for i := 0; time.Now().Before(stop); i++ {
				switch myDeck[i%len(myDeck)] {
				case "delay":
					t0 := time.Now()
					_, err := wk.cl.Delay(ctx, eedclient.DelayRequest{Net: info.Net, Node: names[rng.Intn(len(names))]})
					wk.record("delay", t0, err)
				case "analyze":
					t0 := time.Now()
					_, err := wk.cl.Analyze(ctx, eedclient.AnalyzeRequest{Net: info.Net})
					wk.record("analyze", t0, err)
				case "edit":
					if editNet == "" {
						continue
					}
					editVal += 1e-18
					t0 := time.Now()
					resp, err := wk.cl.Edit(ctx, eedclient.EditRequest{
						Net:   editNet,
						Edits: []eedclient.EditSpec{{Node: editNode, Elem: "C", Value: editVal}},
						Node:  editNode,
					})
					if wk.record("edit", t0, err) {
						editNet = resp.Net
					}
				case "batch":
					items := make([]eedclient.BatchItem, 8)
					for j := range items {
						items[j] = eedclient.BatchItem{Net: info.Net, Node: names[rng.Intn(len(names))]}
					}
					t0 := time.Now()
					_, err := wk.cl.Batch(ctx, eedclient.BatchRequest{Items: items})
					wk.record("batch", t0, err)
				}
			}
		}(w, wk)
	}
	wg.Wait()

	report := &benchReport{
		Net:         netFile,
		Sections:    info.Sections,
		Addr:        base,
		InProcess:   inProc,
		DurationS:   dur.Seconds(),
		Concurrency: conc,
		Mix:         mix,
		MaxRetries:  retries,
		Ops:         map[string]opStats{},
	}
	for _, wk := range workers {
		report.TotalRetries += wk.cl.Stats().Retries
	}
	for _, name := range opNames {
		var all []time.Duration
		errs := 0
		byClass := map[string]int{}
		for _, wk := range workers {
			all = append(all, wk.lat[name]...)
			errs += wk.errs[name]
			for cls, n := range wk.byClass[name] {
				byClass[cls] += n
			}
		}
		report.TotalRequests += len(all) + errs
		report.TotalErrors += errs
		if len(all)+errs == 0 {
			continue
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		st := opStats{CountN: len(all)}
		if errs > 0 {
			st.ErrorsByClass = byClass
		}
		if len(all) > 0 {
			st.P50us = us(obs.Percentile(all, 50))
			st.P90us = us(obs.Percentile(all, 90))
			st.P99us = us(obs.Percentile(all, 99))
			st.Maxus = us(all[len(all)-1])
			st.Throughpt = float64(len(all)) / dur.Seconds()
		}
		report.Ops[name] = st
	}
	report.Throughput = float64(report.TotalRequests) / dur.Seconds()
	return report, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func renderText(r *benchReport) string {
	var b strings.Builder
	mode := "remote"
	if r.InProcess {
		mode = "in-process loopback"
	}
	fmt.Fprintf(&b, "eedload: %s (%d sections) against %s (%s)\n", r.Net, r.Sections, r.Addr, mode)
	fmt.Fprintf(&b, "duration %.1fs, %d workers, mix %v, retries %d\n", r.DurationS, r.Concurrency, r.Mix, r.MaxRetries)
	fmt.Fprintf(&b, "total %d requests (%.0f req/s), %d errors", r.TotalRequests, r.Throughput, r.TotalErrors)
	if r.TotalRetries > 0 {
		fmt.Fprintf(&b, ", %d retries", r.TotalRetries)
	}
	b.WriteString("\n\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %10s %10s %10s %10s\n", "op", "count", "p50[us]", "p90[us]", "p99[us]", "max[us]", "req/s")
	for _, name := range opNames {
		st, ok := r.Ops[name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-8s %10d %10.1f %10.1f %10.1f %10.1f %10.0f\n",
			name, st.CountN, st.P50us, st.P90us, st.P99us, st.Maxus, st.Throughpt)
	}
	wroteHeader := false
	for _, name := range opNames {
		st, ok := r.Ops[name]
		if !ok || len(st.ErrorsByClass) == 0 {
			continue
		}
		if !wroteHeader {
			b.WriteString("\nerrors by class:\n")
			wroteHeader = true
		}
		classes := make([]string, 0, len(st.ErrorsByClass))
		for cls := range st.ErrorsByClass {
			classes = append(classes, cls)
		}
		sort.Strings(classes)
		fmt.Fprintf(&b, "  %-8s", name)
		for _, cls := range classes {
			fmt.Fprintf(&b, " %s=%d", cls, st.ErrorsByClass[cls])
		}
		b.WriteString("\n")
	}
	return b.String()
}
