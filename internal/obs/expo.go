package obs

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
)

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format (version 0.0.4): `# HELP` / `# TYPE` headers per
// metric family, counters and gauges as single samples, histograms as
// cumulative `_bucket{le="..."}` series plus `_sum` and `_count`. Output
// is sorted by metric name, so it is stable across runs and usable in
// golden tests.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	lastFamily := ""
	for _, name := range r.sortedNames() {
		m, ok := r.metrics.Load(name)
		if !ok {
			continue
		}
		family := familyOf(name)
		switch m := m.(type) {
		case *Counter:
			if family != lastFamily {
				fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n", family, m.help, family)
			}
			fmt.Fprintf(bw, "%s %d\n", name, m.Value())
		case *Gauge:
			if family != lastFamily {
				fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s gauge\n", family, m.help, family)
			}
			fmt.Fprintf(bw, "%s %d\n", name, m.Value())
		case *Histogram:
			s := m.snapshot()
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s histogram\n", family, m.help, family)
			cum := uint64(0)
			for i, b := range s.bounds {
				cum += s.counts[i]
				fmt.Fprintf(bw, "%s_bucket{le=\"%d\"} %d\n", family, b, cum)
			}
			cum += s.counts[len(s.bounds)]
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", family, cum)
			fmt.Fprintf(bw, "%s_sum %d\n", family, s.sum)
			fmt.Fprintf(bw, "%s_count %d\n", family, s.count)
			// Pre-computed quantile estimates as untyped companion
			// series, so readers without a PromQL evaluator (curl, a
			// -metrics dump) still get latency percentiles. Skipped
			// for empty histograms, where the estimate is undefined.
			if s.count > 0 {
				for _, q := range expoQuantiles {
					fmt.Fprintf(bw, "%s_p%d %s\n", family, q.pct, formatQuantile(s.quantile(q.q)))
				}
			}
		}
		lastFamily = family
	}
	return bw.Flush()
}

// expoQuantiles are the quantile estimates the exposition attaches to
// every non-empty histogram.
var expoQuantiles = []struct {
	pct int
	q   float64
}{{50, 0.50}, {95, 0.95}, {99, 0.99}}

// formatQuantile renders a quantile estimate with the shortest exact
// representation, so golden tests stay byte-stable.
func formatQuantile(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// DumpPrometheus writes the text exposition to path ("-" means stdout),
// whatever the path's extension.
func (r *Registry) DumpPrometheus(path string) error {
	if path == "-" {
		return r.WritePrometheus(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := r.WritePrometheus(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
