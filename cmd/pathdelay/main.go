// Command pathdelay times a multi-stage path — drivers, RLC interconnect
// trees and receiver loads — with the equivalent Elmore delay model,
// propagating the signal slew from stage to stage (internal/timing).
//
// The path is described by a spec file, one stage per line:
//
//	# name  rdriver  tgate  treefile  sink  [load1=cap,load2=cap,...]
//	inv1 120 8p nets/seg.tree w8 w8=30f
//	inv2 90  6p nets/seg.tree w8 w8=25f
//
// Tree files use the internal/rlctree text format and are resolved
// relative to the spec file. Values accept SPICE suffixes.
//
// Usage:
//
//	pathdelay [-rise t] path.spec
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"eedtree/internal/guard"
	"eedtree/internal/obs"
	"eedtree/internal/rlctree"
	"eedtree/internal/timing"
	"eedtree/internal/unit"
)

func main() {
	os.Exit(realMain())
}

// realMain is main with an exit code instead of os.Exit, so deferred
// cleanup (pprof shutdown, the metrics dump) runs before the process
// ends.
func realMain() int {
	riseFlag := flag.String("rise", "0", "10-90% rise time of the input edge (e.g. 50p); 0 = ideal step")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	metricsOut := flag.String("metrics", "", `write the Prometheus text exposition to this file at exit ("-" = stdout)`)
	pprofAddr := flag.String("pprof", "", `serve net/http/pprof on this address (e.g. "localhost:6060"; empty = no listener)`)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pathdelay [flags] <spec-file>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		return 2
	}
	if *timeout < 0 {
		fmt.Fprintf(os.Stderr, "pathdelay: -timeout must be >= 0 (0 = no limit), got %v\n", *timeout)
		flag.Usage()
		return 2
	}
	if *pprofAddr != "" {
		stop, addr, err := obs.StartPprof(*pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pathdelay: %v\n", err)
			return 2
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "pathdelay: pprof listening on http://%s/debug/pprof/\n", addr)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// guard.Run honors -timeout and converts an internal fault into a
	// classed error instead of a crash.
	err := guard.Run(ctx, func(context.Context) error {
		return run(flag.Arg(0), *riseFlag)
	})
	if *metricsOut != "" {
		if derr := obs.Default().DumpPrometheus(*metricsOut); derr != nil {
			fmt.Fprintf(os.Stderr, "pathdelay: -metrics: %v\n", derr)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pathdelay: [%s] %v\n", guard.ClassName(err), err)
		return 1
	}
	return 0
}

func run(specPath, riseStr string) error {
	rise, err := unit.Parse(riseStr)
	if err != nil {
		return fmt.Errorf("-rise: %w", err)
	}
	stages, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	res, err := timing.AnalyzePath(stages, rise)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %8s %12s %12s %12s\n", "stage", "zeta", "delay[ps]", "rise[ps]", "arrival[ps]")
	for _, sr := range res.Stages {
		fmt.Printf("%-12s %8.3f %12.2f %12.2f %12.2f\n",
			sr.Name, sr.Zeta, 1e12*sr.Delay, 1e12*sr.OutputRise, 1e12*sr.Arrival)
	}
	fmt.Printf("\npath arrival: %.2f ps over %d stages\n", 1e12*res.Arrival, len(res.Stages))
	return nil
}

func loadSpec(path string) ([]timing.Stage, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dir := filepath.Dir(path)
	trees := map[string]*rlctree.Tree{} // cache by file
	var stages []timing.Stage
	lim := guard.DefaultLimits.WithDefaults()
	sc := lim.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 5 || len(fields) > 6 {
			return nil, fmt.Errorf("pathdelay: line %d: want 5 or 6 fields (name rdriver tgate treefile sink [loads])", lineNo)
		}
		rdrv, err := unit.Parse(fields[1])
		if err != nil {
			return nil, fmt.Errorf("pathdelay: line %d: rdriver: %w", lineNo, err)
		}
		tgate, err := unit.Parse(fields[2])
		if err != nil {
			return nil, fmt.Errorf("pathdelay: line %d: tgate: %w", lineNo, err)
		}
		treePath := fields[3]
		if !filepath.IsAbs(treePath) {
			treePath = filepath.Join(dir, treePath)
		}
		tree, ok := trees[treePath]
		if !ok {
			tf, err := os.Open(treePath)
			if err != nil {
				return nil, fmt.Errorf("pathdelay: line %d: %w", lineNo, err)
			}
			tree, err = rlctree.Parse(tf)
			tf.Close()
			if err != nil {
				return nil, fmt.Errorf("pathdelay: line %d: %s: %w", lineNo, treePath, err)
			}
			trees[treePath] = tree
		}
		st := timing.Stage{
			Name:    fields[0],
			RDriver: rdrv,
			TGate:   tgate,
			Tree:    tree,
			Sink:    fields[4],
		}
		if len(fields) == 6 {
			st.Loads = map[string]float64{}
			for _, kv := range strings.Split(fields[5], ",") {
				parts := strings.SplitN(kv, "=", 2)
				if len(parts) != 2 {
					return nil, fmt.Errorf("pathdelay: line %d: load %q must be name=cap", lineNo, kv)
				}
				c, err := unit.Parse(parts[1])
				if err != nil {
					return nil, fmt.Errorf("pathdelay: line %d: load %q: %w", lineNo, kv, err)
				}
				st.Loads[parts[0]] = c
			}
		}
		stages = append(stages, st)
	}
	if err := lim.ScanError("pathdelay", lineNo, sc.Err()); err != nil {
		return nil, err
	}
	if len(stages) == 0 {
		return nil, fmt.Errorf("pathdelay: spec %q describes no stages", path)
	}
	return stages, nil
}
