package obs

import (
	"os"
	"strings"
	"testing"
)

func mustRead(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// goldenRegistry builds a registry with one of everything, with fixed
// values, so the exposition formats can be compared byte-for-byte.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter(Label("eed_test_errors_total", "class", "parse"), "Errors by class.").Add(3)
	r.Counter(Label("eed_test_errors_total", "class", "numeric"), "Errors by class.").Add(1)
	r.Counter("eed_test_hits_total", "Cache hits.").Add(7)
	r.Gauge("eed_test_entries", "Live cache entries.").Set(42)
	h := r.Histogram("eed_test_latency_ns", "Stage latency.", []int64{10, 100, 1000})
	for _, v := range []int64{5, 50, 500, 5000} {
		h.Observe(v)
	}
	return r
}

const goldenPrometheus = `# HELP eed_test_entries Live cache entries.
# TYPE eed_test_entries gauge
eed_test_entries 42
# HELP eed_test_errors_total Errors by class.
# TYPE eed_test_errors_total counter
eed_test_errors_total{class="numeric"} 1
eed_test_errors_total{class="parse"} 3
# HELP eed_test_hits_total Cache hits.
# TYPE eed_test_hits_total counter
eed_test_hits_total 7
# HELP eed_test_latency_ns Stage latency.
# TYPE eed_test_latency_ns histogram
eed_test_latency_ns_bucket{le="10"} 1
eed_test_latency_ns_bucket{le="100"} 2
eed_test_latency_ns_bucket{le="1000"} 3
eed_test_latency_ns_bucket{le="+Inf"} 4
eed_test_latency_ns_sum 5555
eed_test_latency_ns_count 4
eed_test_latency_ns_p50 100
eed_test_latency_ns_p95 1000
eed_test_latency_ns_p99 1000
`

func TestWritePrometheusGolden(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != goldenPrometheus {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, goldenPrometheus)
	}
}

// The HELP/TYPE header must appear once per family, not once per labeled
// series — checked structurally on top of the golden comparison so the
// intent survives golden-file churn.
func TestWritePrometheusFamilyGrouping(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if n := strings.Count(out, "# TYPE eed_test_errors_total counter"); n != 1 {
		t.Errorf("family header appears %d times, want 1:\n%s", n, out)
	}
}

// TestDumpPrometheusFiles: every dump path gets the text exposition,
// a .json one included.
func TestDumpPrometheusFiles(t *testing.T) {
	r := goldenRegistry()
	dir := t.TempDir()
	for _, name := range []string{"metrics.prom", "metrics.json"} {
		path := dir + "/" + name
		if err := r.DumpPrometheus(path); err != nil {
			t.Fatal(err)
		}
		if got := mustRead(t, path); got != goldenPrometheus {
			t.Errorf("%s dump differs from WritePrometheus:\n%s", name, got)
		}
	}
}
