// Command rlcdelay computes the equivalent Elmore characterization of an
// RLC tree: per-node damping factor, natural frequency, 50% delay, rise
// time, overshoot and settling time, with the classical Elmore (Wyatt) RC
// delay for comparison and an optional transient-simulation cross-check.
//
// The tree is read from one or more files (or stdin with "-") in the
// compact text format of internal/rlctree:
//
//	# name parent R L C   ("-" parent = attached to the input)
//	s1 -  25 5n 50f
//	s2 s1 25 5n 50f
//
// SPEF parasitic files are also accepted (-spef, with -net selecting the
// net when the file holds several).
//
// Each input is processed in isolation: a malformed or oversized file is
// reported with its error class (parse, topology, numeric, limit,
// canceled, internal) and the remaining inputs are still analyzed.
// With -j N, up to N inputs are processed concurrently on the
// internal/engine batch scheduler (and per-node sweeps use N workers);
// output is still emitted in input order and the exit-code semantics are
// unchanged. -j 0 means one worker per CPU. Batch runs (multiple inputs
// or -j ≠ 1) end with a summary line on stderr: inputs, failures by
// class, degraded-node totals, and p50/p99 per-input latency.
//
// Observability: -metrics writes the Prometheus text exposition ("-" =
// stdout) at exit, with the latency histograms of the layers each input
// runs through (the sums pass, the per-node sweep, the engine's sweep);
// -pprof serves net/http/pprof on the given address while the run lasts.
// Both are off by default and cost nothing when off.
//
// Nodes whose second-order model degraded to the RC (Elmore) fallback are
// marked in the `deg` column with the degradation class (zero-inductance,
// non-physical, degenerate); `-` means a genuine second-order model.
//
// Exit status: 0 when every input succeeded, 1 when every input failed,
// 2 on usage errors, 3 when only some inputs failed (partial failure).
//
// Usage:
//
//	rlcdelay [-sim] [-node name] [-vdd v] [-timeout d] [-j n] tree.txt [tree2.txt ...]
//	rlcdelay -spef [-net name] design.spef
//	rlcdelay -j 4 -metrics - nets/*.tree
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"eedtree/internal/core"
	"eedtree/internal/engine"
	"eedtree/internal/guard"
	"eedtree/internal/obs"
	"eedtree/internal/rlctree"
	"eedtree/internal/sources"
	"eedtree/internal/spef"
	"eedtree/internal/transim"
)

func main() {
	os.Exit(realMain())
}

// realMain is main with an exit code instead of os.Exit, so deferred
// cleanup (pprof shutdown, the metrics dump) runs before the process
// ends.
func realMain() int {
	var (
		simulate   = flag.Bool("sim", false, "cross-check the 50% delay against a transient simulation")
		node       = flag.String("node", "", "report a single node (default: all nodes)")
		vdd        = flag.Float64("vdd", 1.0, "step amplitude used for the simulation cross-check")
		useSpef    = flag.Bool("spef", false, "input is a SPEF parasitic file")
		netName    = flag.String("net", "", "with -spef: the net to analyze (default: first net)")
		dot        = flag.Bool("dot", false, "emit the tree as Graphviz DOT instead of analyzing it")
		timeout    = flag.Duration("timeout", 0, "abort the whole run after this duration (0 = no limit)")
		jobs       = flag.Int("j", 1, "process up to this many inputs concurrently (0 = one per CPU)")
		metricsOut = flag.String("metrics", "", `write the Prometheus text exposition to this file at exit ("-" = stdout)`)
		pprofAddr  = flag.String("pprof", "", `serve net/http/pprof on this address (e.g. "localhost:6060"; empty = no listener)`)
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rlcdelay [flags] <tree-file|-> [more-files...]\n")
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, "exit status: 0 all inputs ok, 1 all failed, 2 usage, 3 some failed\n")
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		return 2
	}
	if err := validateFlags(*jobs, *timeout, *vdd); err != nil {
		fmt.Fprintf(os.Stderr, "rlcdelay: %v\n", err)
		flag.Usage()
		return 2
	}
	if *pprofAddr != "" {
		stop, addr, err := obs.StartPprof(*pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rlcdelay: %v\n", err)
			return 2
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "rlcdelay: pprof listening on http://%s/debug/pprof/\n", addr)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts := batchOptions{
		node: *node, vdd: *vdd, sim: *simulate,
		spef: *useSpef, net: *netName, dot: *dot, jobs: *jobs,
	}
	code := runBatch(ctx, flag.Args(), opts, os.Stderr)
	if *metricsOut != "" {
		if err := obs.Default().DumpPrometheus(*metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "rlcdelay: -metrics: %v\n", err)
		}
	}
	return code
}

// validateFlags rejects flag values that would otherwise silently
// misbehave: a negative -j used to mean "one worker per CPU" and a
// negative -timeout used to mean "no limit". Callers report the error and
// exit 2 (the usage path).
func validateFlags(jobs int, timeout time.Duration, vdd float64) error {
	if jobs < 0 {
		return fmt.Errorf("-j must be >= 0 (0 = one per CPU), got %d", jobs)
	}
	if timeout < 0 {
		return fmt.Errorf("-timeout must be >= 0 (0 = no limit), got %v", timeout)
	}
	if !(vdd > 0) || math.IsInf(vdd, 0) || math.IsNaN(vdd) {
		return fmt.Errorf("-vdd must be a positive finite voltage, got %g", vdd)
	}
	return nil
}

type batchOptions struct {
	node string
	vdd  float64
	sim  bool
	spef bool
	net  string
	dot  bool
	jobs int // concurrent inputs and per-node sweep workers; 0 = GOMAXPROCS
}

// inputInfo is the per-input accounting runBatch collects for the batch
// summary: wall time and how many nodes degraded to the RC model.
type inputInfo struct {
	dur      time.Duration
	degraded int
}

// runBatch processes the inputs on the engine's bounded-concurrency batch
// scheduler. Each input runs in isolation — guard.Run converts a fault (or
// the context firing) in one file into a reported, classed error and the
// rest of the batch is unaffected. Every input writes into its own buffer
// and the buffers are flushed in input order, so stdout and the stderr
// diagnostics are deterministic regardless of how the scheduler interleaves
// the work. Returns the process exit code: 0 when every input succeeded,
// 1 when all failed, 3 on partial failure.
func runBatch(ctx context.Context, paths []string, opts batchOptions, errw io.Writer) int {
	// One shared engine: the per-node sweeps of all inputs draw from the
	// same worker budget.
	eng := engine.New(engine.Options{Workers: opts.jobs})
	outs := make([]bytes.Buffer, len(paths))
	infos := make([]inputInfo, len(paths))
	errs := engine.Batch(ctx, len(paths), opts.jobs, func(ctx context.Context, i int) error {
		t0 := time.Now()
		var err error
		if opts.dot {
			err = runDOT(&outs[i], paths[i], opts.spef, opts.net)
		} else {
			err = run(ctx, eng, &outs[i], paths[i], opts, &infos[i])
		}
		infos[i].dur = time.Since(t0)
		return err
	})
	failed := 0
	byClass := map[string]int{}
	for i, path := range paths {
		if len(paths) > 1 {
			fmt.Printf("== %s ==\n", path)
		}
		outs[i].WriteTo(os.Stdout)
		if errs[i] != nil {
			fmt.Fprintf(errw, "rlcdelay: %s: [%s] %v\n", path, guard.ClassName(errs[i]), errs[i])
			byClass[guard.ClassName(errs[i])]++
			failed++
		}
	}
	if len(paths) > 1 || opts.jobs != 1 {
		fmt.Fprintln(errw, batchSummary(paths, infos, failed, byClass))
	}
	switch {
	case failed == 0:
		return 0
	case failed == len(paths):
		return 1
	default:
		return 3 // partial failure
	}
}

// batchSummary renders the end-of-run accounting line for batch mode:
// input and failure totals (failures broken down by guard class), how
// many nodes were silently degraded to the RC model and across how many
// inputs, and exact p50/p99 of the per-input wall times.
func batchSummary(paths []string, infos []inputInfo, failed int, byClass map[string]int) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "rlcdelay: batch: %d input(s), %d failed", len(paths), failed)
	if len(byClass) > 0 {
		classes := make([]string, 0, len(byClass))
		for c := range byClass {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		b.WriteString(" (")
		for i, c := range classes {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s:%d", c, byClass[c])
		}
		b.WriteByte(')')
	}
	degNodes, degInputs := 0, 0
	durs := make([]time.Duration, 0, len(infos))
	for _, info := range infos {
		if info.degraded > 0 {
			degNodes += info.degraded
			degInputs++
		}
		durs = append(durs, info.dur)
	}
	fmt.Fprintf(&b, ", %d node(s) degraded to RC in %d input(s)", degNodes, degInputs)
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	if len(durs) > 0 {
		p50 := obs.Percentile(durs, 50)
		p99 := obs.Percentile(durs, 99)
		fmt.Fprintf(&b, ", latency p50=%s p99=%s", si(p50.Seconds()), si(p99.Seconds()))
	}
	return b.String()
}

func runDOT(w io.Writer, path string, useSpef bool, netName string) error {
	tree, err := loadTree(path, useSpef, netName, guard.DefaultLimits)
	if err != nil {
		return err
	}
	return tree.WriteDOT(w, path)
}

func run(ctx context.Context, eng *engine.Engine, w io.Writer, path string, opts batchOptions, info *inputInfo) error {
	only, vdd, simulate := opts.node, opts.vdd, opts.sim
	tree, err := loadTree(path, opts.spef, opts.net, guard.DefaultLimits.WithDefaults())
	if err != nil {
		return err
	}
	if only != "" && tree.Section(only) == nil {
		return fmt.Errorf("unknown node %q", only)
	}
	analyses, err := eng.AnalyzeTree(ctx, tree)
	if err != nil {
		return err
	}
	var simDelay map[string]float64
	if simulate {
		if simDelay, err = simulateDelays(ctx, tree, analyses, vdd); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "%-12s %9s %12s %11s %11s %10s %11s %11s", "node", "zeta", "omega_n", "delay50", "rise", "overshoot", "settle", "elmore50")
	if simulate {
		fmt.Fprintf(w, " %11s %8s", "sim50", "err%")
	}
	fmt.Fprintf(w, " %s\n", "deg")
	degraded := map[string]int{}
	for _, a := range analyses {
		if only != "" && a.Section.Name() != only {
			continue
		}
		zeta := "inf(RC)"
		omega := "inf"
		if !a.Model.RCOnly() {
			zeta = fmt.Sprintf("%.4g", a.Model.Zeta())
			omega = fmt.Sprintf("%.4g", a.Model.OmegaN())
		}
		degMark := "-"
		if a.Degraded {
			degraded[a.DegradedReason]++
			info.degraded++
			degMark = a.DegradedClass
		}
		fmt.Fprintf(w, "%-12s %9s %12s %11s %11s %9.2f%% %11s %11s",
			a.Section.Name(), zeta, omega,
			si(a.Delay50), si(a.RiseTime), 100*a.Overshoot, si(a.SettlingTime), si(a.ElmoreDelay50))
		if simulate {
			d := simDelay[a.Section.Name()]
			errPct := math.NaN()
			if d > 0 {
				errPct = 100 * math.Abs(a.Delay50-d) / d
			}
			fmt.Fprintf(w, " %11s %7.2f%%", si(d), errPct)
		}
		fmt.Fprintf(w, " %s\n", degMark)
	}
	for reason, n := range degraded {
		fmt.Fprintf(w, "note: %d node(s) degraded to the RC (Elmore) model: %s\n", n, reason)
	}
	return nil
}

func loadTree(path string, useSpef bool, netName string, lim guard.Limits) (*rlctree.Tree, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	if !useSpef {
		return rlctree.ParseLimits(r, lim)
	}
	file, err := spef.ParseLimits(r, lim)
	if err != nil {
		return nil, err
	}
	if len(file.Nets) == 0 {
		return nil, fmt.Errorf("SPEF file has no nets")
	}
	net := file.Nets[0]
	if netName != "" {
		if net = file.Net(netName); net == nil {
			return nil, fmt.Errorf("SPEF file has no net %q", netName)
		}
	}
	return net.Tree(file.Units)
}

func simulateDelays(ctx context.Context, tree *rlctree.Tree, analyses []core.NodeAnalysis, vdd float64) (map[string]float64, error) {
	deck, err := tree.ToDeck(sources.Step{V0: 0, V1: vdd})
	if err != nil {
		return nil, err
	}
	horizon := 0.0
	for _, a := range analyses {
		h := 6 * a.Delay50
		if !math.IsNaN(a.SettlingTime) && 2*a.SettlingTime > h {
			h = 2 * a.SettlingTime
		}
		if h > horizon {
			horizon = h
		}
	}
	res, err := transim.SimulateCtx(ctx, deck, transim.Options{Step: horizon / 20000, Stop: horizon})
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(analyses))
	for _, a := range analyses {
		w, err := res.Node(a.Section.Name())
		if err != nil {
			return nil, err
		}
		if d, err := w.Delay50(vdd); err == nil {
			out[a.Section.Name()] = d
		}
	}
	return out, nil
}

// si formats seconds with an engineering suffix.
func si(v float64) string {
	switch {
	case math.IsNaN(v):
		return "n/a"
	case v == 0:
		return "0"
	case v >= 1e-6:
		return fmt.Sprintf("%.4gus", v*1e6)
	case v >= 1e-9:
		return fmt.Sprintf("%.4gns", v*1e9)
	case v >= 1e-12:
		return fmt.Sprintf("%.4gps", v*1e12)
	default:
		return fmt.Sprintf("%.4gfs", v*1e15)
	}
}
