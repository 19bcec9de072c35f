// Command rlcsim runs a fixed-step transient simulation of a SPICE-subset
// deck (see internal/circuit for the accepted syntax) and writes the node
// voltage waveforms as CSV to stdout. With -ac it instead sweeps the
// frequency domain (unit phasor on every source) and writes per-node
// magnitude and phase columns.
//
// Usage:
//
//	rlcsim [-step s] [-stop s] [-method trap|be] [-nodes a,b,c] deck.sp
//	rlcsim -ac -fstart 1e6 -fstop 1e11 [-points 50] [-nodes a,b] deck.sp
//
// The time step and stop time default to the deck's .tran directive.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/cmplx"
	"os"
	"strings"

	"eedtree/internal/circuit"
	"eedtree/internal/guard"
	"eedtree/internal/mna"
	"eedtree/internal/obs"
	"eedtree/internal/transim"
	"eedtree/internal/unit"
)

func main() {
	os.Exit(realMain())
}

// realMain is main with an exit code instead of os.Exit, so deferred
// cleanup (pprof shutdown, the metrics dump) runs before the process
// ends.
func realMain() int {
	var (
		stepFlag   = flag.String("step", "", "time step (e.g. 1p); defaults to the deck's .tran")
		stopFlag   = flag.String("stop", "", "stop time (e.g. 10n); defaults to the deck's .tran")
		method     = flag.String("method", "trap", "integration method: trap or be")
		nodesFlag  = flag.String("nodes", "", "comma-separated node names to output (default: all non-ground nodes)")
		stride     = flag.Int("stride", 1, "output every Nth time point")
		acFlag     = flag.Bool("ac", false, "frequency sweep instead of transient")
		fstart     = flag.Float64("fstart", 1e6, "with -ac: sweep start frequency [Hz]")
		fstop      = flag.Float64("fstop", 1e11, "with -ac: sweep stop frequency [Hz]")
		points     = flag.Int("points", 50, "with -ac: number of log-spaced frequency points")
		adaptive   = flag.Bool("adaptive", false, "error-controlled time stepping (trapezoidal; -step ignored)")
		tol        = flag.Float64("tol", 1e-4, "with -adaptive: relative local-truncation-error tolerance")
		timeout    = flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
		metricsOut = flag.String("metrics", "", `write the Prometheus text exposition to this file at exit ("-" = stdout)`)
		pprofAddr  = flag.String("pprof", "", `serve net/http/pprof on this address (e.g. "localhost:6060"; empty = no listener)`)
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rlcsim [flags] <deck-file|->\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		return 2
	}
	if *timeout < 0 {
		fmt.Fprintf(os.Stderr, "rlcsim: -timeout must be >= 0 (0 = no limit), got %v\n", *timeout)
		flag.Usage()
		return 2
	}
	if *pprofAddr != "" {
		stop, addr, err := obs.StartPprof(*pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rlcsim: %v\n", err)
			return 2
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "rlcsim: pprof listening on http://%s/debug/pprof/\n", addr)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// guard.Run honors -timeout and converts an internal fault into a
	// classed error instead of a crash.
	err := guard.Run(ctx, func(ctx context.Context) error {
		switch {
		case *acFlag:
			return runAC(ctx, flag.Arg(0), *fstart, *fstop, *points, *nodesFlag)
		case *adaptive:
			return runAdaptive(ctx, flag.Arg(0), *stopFlag, *tol, *nodesFlag)
		default:
			return run(ctx, flag.Arg(0), *stepFlag, *stopFlag, *method, *nodesFlag, *stride)
		}
	})
	if *metricsOut != "" {
		if derr := obs.Default().DumpPrometheus(*metricsOut); derr != nil {
			fmt.Fprintf(os.Stderr, "rlcsim: -metrics: %v\n", derr)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rlcsim: [%s] %v\n", guard.ClassName(err), err)
		return 1
	}
	return 0
}

func runAC(ctx context.Context, path string, fstart, fstop float64, points int, nodeList string) error {
	if !(fstart > 0) || !(fstop > fstart) || points < 2 {
		return fmt.Errorf("-ac requires 0 < fstart < fstop and points ≥ 2")
	}
	deck, err := loadDeck(path)
	if err != nil {
		return err
	}
	sys, err := mna.New(deck)
	if err != nil {
		return err
	}
	nodes, ids, err := selectNodes(deck, nodeList)
	if err != nil {
		return err
	}
	out := os.Stdout
	fmt.Fprint(out, "freq_hz")
	for _, n := range nodes {
		fmt.Fprintf(out, ",mag_%s,phase_deg_%s", n, n)
	}
	fmt.Fprintln(out)
	ratio := math.Pow(fstop/fstart, 1/float64(points-1))
	f := fstart
	for i := 0; i < points; i++ {
		if err := guard.Check(ctx); err != nil {
			return err
		}
		sol, err := sys.AC(2 * math.Pi * f)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%g", f)
		for _, id := range ids {
			v := sol.VoltageAt(id)
			fmt.Fprintf(out, ",%g,%g", cmplx.Abs(v), 180/math.Pi*cmplx.Phase(v))
		}
		fmt.Fprintln(out)
		f *= ratio
	}
	return nil
}

func runAdaptive(ctx context.Context, path, stopStr string, tol float64, nodeList string) error {
	deck, err := loadDeck(path)
	if err != nil {
		return err
	}
	stop := 0.0
	if stopStr != "" {
		if stop, err = unit.Parse(stopStr); err != nil {
			return fmt.Errorf("-stop: %w", err)
		}
	} else if deck.Tran != nil {
		stop = deck.Tran.Stop
	}
	res, stats, err := transim.SimulateAdaptiveCtx(ctx, deck, transim.AdaptiveOptions{Stop: stop, Tol: tol})
	if err != nil {
		return err
	}
	nodes, _, err := selectNodes(deck, nodeList)
	if err != nil {
		return err
	}
	waves := make([][]float64, len(nodes))
	for i, n := range nodes {
		w, err := res.Node(n)
		if err != nil {
			return err
		}
		waves[i] = w.Value
	}
	out := os.Stdout
	fmt.Fprintf(out, "# adaptive: %d accepted, %d rejected, step %.3g..%.3g s\n",
		stats.Accepted, stats.Rejected, stats.MinStepUsed, stats.MaxStepUsed)
	fmt.Fprintf(out, "time,%s\n", strings.Join(nodes, ","))
	for i := range res.Time {
		fmt.Fprintf(out, "%g", res.Time[i])
		for _, w := range waves {
			fmt.Fprintf(out, ",%g", w[i])
		}
		fmt.Fprintln(out)
	}
	return nil
}

func loadDeck(path string) (*circuit.Deck, error) {
	if path == "-" {
		return circuit.ParseDeck(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return circuit.ParseDeck(f)
}

func selectNodes(deck *circuit.Deck, nodeList string) ([]string, []circuit.NodeID, error) {
	var nodes []string
	if nodeList != "" {
		for _, n := range strings.Split(nodeList, ",") {
			nodes = append(nodes, strings.TrimSpace(n))
		}
	} else {
		for _, n := range deck.NodeNames() {
			if n != "0" {
				nodes = append(nodes, n)
			}
		}
	}
	ids := make([]circuit.NodeID, len(nodes))
	for i, n := range nodes {
		id, ok := deck.Lookup(n)
		if !ok {
			return nil, nil, fmt.Errorf("unknown node %q", n)
		}
		ids[i] = id
	}
	return nodes, ids, nil
}

func run(ctx context.Context, path, stepStr, stopStr, method, nodeList string, stride int) error {
	deck, err := loadDeck(path)
	if err != nil {
		return err
	}
	opt := transim.Options{}
	switch method {
	case "trap":
		opt.Method = transim.Trapezoidal
	case "be":
		opt.Method = transim.BackwardEuler
	default:
		return fmt.Errorf("unknown method %q (want trap or be)", method)
	}
	if stepStr != "" {
		if opt.Step, err = unit.Parse(stepStr); err != nil {
			return fmt.Errorf("-step: %w", err)
		}
	} else if deck.Tran != nil {
		opt.Step = deck.Tran.Step
	}
	if stopStr != "" {
		if opt.Stop, err = unit.Parse(stopStr); err != nil {
			return fmt.Errorf("-stop: %w", err)
		}
	} else if deck.Tran != nil {
		opt.Stop = deck.Tran.Stop
	}
	if stride < 1 {
		return fmt.Errorf("-stride must be ≥ 1")
	}

	res, err := transim.SimulateCtx(ctx, deck, opt)
	if err != nil {
		return err
	}

	var nodes []string
	if nodeList != "" {
		nodes = strings.Split(nodeList, ",")
	} else {
		for _, n := range deck.NodeNames() {
			if n != "0" {
				nodes = append(nodes, n)
			}
		}
	}
	waves := make([][]float64, len(nodes))
	for i, n := range nodes {
		w, err := res.Node(strings.TrimSpace(n))
		if err != nil {
			return err
		}
		waves[i] = w.Value
	}

	out := os.Stdout
	fmt.Fprintf(out, "time,%s\n", strings.Join(nodes, ","))
	for i := 0; i < len(res.Time); i += stride {
		fmt.Fprintf(out, "%g", res.Time[i])
		for _, w := range waves {
			fmt.Fprintf(out, ",%g", w[i])
		}
		fmt.Fprintln(out)
	}
	return nil
}
