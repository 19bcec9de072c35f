// Command perfbench is the repository's benchmark. Each invocation runs
// one workload of the program in its own process, with the program's
// shipped defaults, times calls into its public packages from outside,
// checks every output against the independent reference in ./ref or a
// property the method must have, and prints one JSON result line:
//
//	perfbench --workload chip_stream --seed 1 --seconds 10 --trace 0
//
// --trace 1 runs the workload untraced, then again with spans around
// each layer call, and prints the per-layer ledger instead of the
// end-to-end metrics. `perfbench compare` runs workloads repeatedly and
// prints medians and spreads (see compare.go). README.md lists the
// workloads, metrics and reference figures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

// workload is one user path. A fresh value is made for every set-up, so
// set-up repeats the same work each time.
type workload interface {
	// setup generates the inputs from the seed and starts what the
	// workload needs. dir is a private scratch directory.
	setup(seed int64, dir string) error
	// teardown stops everything setup started.
	teardown()
	// round runs one whole round of ops, appending one latency per op.
	// An error is a failed or wrong op and ends the run.
	round(lat *[]time.Duration) error
	// traced runs the traced phase and the replays (see trace.go).
	traced(tc *traceRun) error
}

var workloads = map[string]func() workload{
	"chip_stream": func() workload { return &chipStream{} },
	"serve_mixed": func() workload { return &serveMixed{} },
	"optimize":    func() workload { return &optimize{} },
	"big_tree":    func() workload { return &bigTree{} },
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 5

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: chip_stream, serve_mixed, optimize or big_tree")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer ledger of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg.trace = trace == 1
	res, err := run(cfg, mk)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res == nil {
			return 1
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Println(string(line))
	if err != nil {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// errCheck marks an output that disagrees with the reference or a
// required property; the run reports correct=false.
var errCheck = errors.New("check failed")

func run(cfg config, mk func() workload) (*result, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var bench *benchFile
	if cfg.trace {
		if bench, err = readBenchmark("BENCHMARK.json"); err != nil {
			return nil, err
		}
	}

	// Set-up is timed in process CPU seconds: the work it does, which
	// other tenants' load on the machine does not stretch the way it
	// stretches wall time.
	var w workload
	var sub string
	var setupCPU, setupWall []float64
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.teardown()
			os.RemoveAll(sub)
		}
		w = mk()
		sub = filepath.Join(dir, fmt.Sprint(i))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return nil, err
		}
		// The previous set-up's garbage is collected here, outside the
		// timing, so each set-up starts from the same heap.
		runtime.GC()
		t0, c0 := time.Now(), processCPU()
		err := w.setup(cfg.seed, sub)
		setupCPU = append(setupCPU, (processCPU() - c0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
		if err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
	}
	defer w.teardown()
	setupS := median(setupCPU)
	fmt.Printf("set-up: median of %d, %.4f s CPU, %.4f s wall; CPU s per set-up %.4f\n", setupReps, setupS, median(setupWall), setupCPU)

	// Warm-up: whole rounds for a fifth of the run (at most 2 s), so
	// caches, pools and the heap reach their steady size first.
	warm := min(cfg.seconds/5, 2)
	var lat []time.Duration
	for t0 := time.Now(); ; {
		lat = lat[:0]
		if err := w.round(&lat); err != nil {
			return failedResult(0, err)
		}
		if time.Since(t0).Seconds() >= warm {
			break
		}
	}

	ph, err := timedPhase(w, cfg.seconds)
	if err != nil {
		return failedResult(ph.ops, err)
	}
	fmt.Printf("workload %s seed %d: %d ops attempted, 0 failed, %.3f s timed, steal %.1f%% of machine CPU\n",
		cfg.workload, cfg.seed, ph.ops, ph.wall.Seconds(), 100*ph.steal)
	ph.printWindows()

	res := &result{Correct: true, Attempted: ph.ops, Metrics: map[string]metric{}}
	wall := ph.wallFigures()
	for _, m := range wall {
		fmt.Printf("  %-22s %14.4f %s\n", m.name, m.value, m.unit)
	}
	if !cfg.trace {
		for _, m := range ph.endToEnd(setupS) {
			res.Metrics[m.name] = metric{m.value, m.unit}
			fmt.Printf("  %-22s %14.4f %s\n", m.name, m.value, m.unit)
		}
		return res, nil
	}
	tc := &traceRun{cfg: cfg, untraced: ph, layers: map[string]float64{}}
	tc.tr.t0 = time.Now()
	for _, m := range wall {
		tc.layers[m.name] = m.value
	}
	tc.layers["gc_per_kop"] = 1000 * float64(ph.gcs) / float64(ph.ops)
	if err := w.traced(tc); err != nil {
		return failedResult(ph.ops, err)
	}
	if err := tc.writeSpans(); err != nil {
		return nil, err
	}
	// The per-layer metrics are those BENCHMARK.json lists; a layer that
	// this workload never calls reads 0. A layer the workload measured but
	// the list lacks is an error, so the two cannot drift apart.
	for _, l := range bench.PerLayer {
		res.Metrics[l.Name] = metric{tc.layers[l.Name], l.Unit}
	}
	for name := range tc.layers {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("layer metric %s is not in the per_layer list of BENCHMARK.json", name)
		}
	}
	return res, nil
}

// failedResult reports a run that stopped on a wrong or failed op: the
// run ends at the first such op, so exactly one failed.
func failedResult(ops int64, err error) (*result, error) {
	if errors.Is(err, errCheck) {
		return &result{Correct: false, Attempted: max(ops, 1), Failed: 1, Metrics: map[string]metric{}}, err
	}
	return nil, err
}
