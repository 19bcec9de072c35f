package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// compareMain runs chosen workloads k times each with seeds 1…k,
// alternating between them (and, with -base, between the base checkout
// and this one, with the same seed on both sides), then prints every
// end-to-end metric's median, quartiles and spread against its bound in
// BENCHMARK.json:
//
//	bash perfbench/run.sh compare -k 10 -workloads optimize,big_tree
//	bash perfbench/run.sh compare -k 10 -base ../parent-checkout
//
// Each run is `bash perfbench/run.sh --workload W --seed S ...` in the
// side's own root, so each side is built from its own source.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	k := fs.Int("k", 10, "runs per workload and side")
	list := fs.String("workloads", "", "comma-separated workloads (empty = all in BENCHMARK.json)")
	base := fs.String("base", "", "root of a second checkout to compare against")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bench, err := readBenchmark("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	var names []string
	if *list != "" {
		names = strings.Split(*list, ",")
	} else {
		for _, w := range bench.Workloads {
			names = append(names, w.Name)
		}
	}
	sides := []string{"."}
	if *base != "" {
		sides = []string{*base, "."}
	}
	// values[side][workload][metric] over runs; steal[side][workload] is
	// the machine's steal share of each run's timed phase.
	values := make([]map[string]map[string][]float64, len(sides))
	steal := make([]map[string][]float64, len(sides))
	for s := range sides {
		values[s] = map[string]map[string][]float64{}
		steal[s] = map[string][]float64{}
	}
	for i := 0; i < *k; i++ {
		seed := int64(i + 1)
		for _, w := range names {
			for j := range sides {
				s := (i + j) % len(sides) // alternate which side runs first
				res, st, err := runOnce(sides[s], w, seed, bench.RunSeconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench compare: %s on %s, seed %d: %v\n", w, sides[s], seed, err)
					return 1
				}
				if values[s][w] == nil {
					values[s][w] = map[string][]float64{}
				}
				for name, m := range res.Metrics {
					values[s][w][name] = append(values[s][w][name], m.Value)
				}
				steal[s][w] = append(steal[s][w], st)
				fmt.Fprintf(os.Stderr, "run %d/%d %s %s done, steal %.1f%%\n", i+1, *k, w, sides[s], 100*st)
			}
		}
	}
	for _, w := range names {
		fmt.Printf("%s (%d runs per side)\n", w, *k)
		for s, side := range sides {
			q := quartiles(steal[s][w])
			fmt.Printf("  steal share on %s: median %.1f%%, quartiles %.1f%%–%.1f%%\n", side, 100*q[1], 100*q[0], 100*q[2])
		}
		for _, m := range bench.EndToEnd {
			for s, side := range sides {
				v := values[s][w][m.Name]
				q := quartiles(v)
				spread := (q[2] - q[0]) / q[1]
				flag := "ok"
				if spread > m.Bound {
					flag = "WIDER THAN BOUND"
				}
				fmt.Printf("  %-18s %-6s %-10s median %14.4f  q1 %14.4f  q3 %14.4f  spread %6.3f of bound %.3f  %s\n",
					m.Name, m.Unit, side, q[1], q[0], q[2], spread, m.Bound, flag)
			}
			if len(sides) == 2 {
				b, h := quartiles(values[0][w][m.Name])[1], quartiles(values[1][w][m.Name])[1]
				worse := (h - b) / b
				if m.Better == "higher" {
					worse = (b - h) / b
				}
				verdict := "within bound"
				if worse > m.Bound {
					verdict = "WORSE THAN BOUND"
				}
				fmt.Printf("  %-18s change vs base %+.3f (worse by %.3f, bound %.3f): %s\n", m.Name, (h-b)/b, worse, m.Bound, verdict)
			}
		}
	}
	return 0
}

type benchFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmark(path string) (*benchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// runOnce runs one untraced benchmark run in root and parses its last
// output line, and the steal share from its summary line.
func runOnce(root, workload string, seed int64, secs int) (*result, float64, error) {
	cmd := exec.Command("bash", filepath.Join("perfbench", "run.sh"), "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(secs), "--trace", "0")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, 0, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return nil, 0, fmt.Errorf("outputs were wrong")
	}
	var steal float64
	for _, l := range lines {
		if _, after, ok := strings.Cut(string(l), " s timed, steal "); ok && bytes.HasPrefix(l, []byte("workload ")) {
			if _, err := fmt.Sscanf(after, "%g%%", &steal); err != nil {
				return nil, 0, fmt.Errorf("steal in %q: %w", l, err)
			}
		}
	}
	return &res, steal / 100, nil
}

// quartiles returns q1, median and q3 by the exclusive method of
// Python's statistics.quantiles(values, n=4).
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	if n == 0 {
		return q
	}
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
