package obs

import (
	"encoding/json"
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

const goldenJSON = `{
  "counters": {
    "eed_test_errors_total{class=\"numeric\"}": 1,
    "eed_test_errors_total{class=\"parse\"}": 3,
    "eed_test_hits_total": 7
  },
  "gauges": {
    "eed_test_entries": 42
  },
  "histograms": {
    "eed_test_latency_ns": {
      "buckets": [
        {
          "le": "10",
          "count": 1
        },
        {
          "le": "100",
          "count": 2
        },
        {
          "le": "1000",
          "count": 3
        },
        {
          "le": "+Inf",
          "count": 4
        }
      ],
      "sum": 5555,
      "count": 4,
      "p50": 100,
      "p95": 1000,
      "p99": 1000
    }
  }
}
`

func TestWriteJSONGolden(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if got != goldenJSON {
		t.Errorf("JSON dump mismatch:\n--- got ---\n%s--- want ---\n%s", got, goldenJSON)
	}
	// And it must actually be valid JSON.
	var v map[string]any
	if err := json.Unmarshal([]byte(got), &v); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
}

func TestDumpPrometheusFiles(t *testing.T) {
	r := goldenRegistry()
	dir := t.TempDir()
	txt := dir + "/metrics.prom"
	if err := r.DumpPrometheus(txt); err != nil {
		t.Fatal(err)
	}
	jsonPath := dir + "/metrics.json"
	if err := r.DumpPrometheus(jsonPath); err != nil {
		t.Fatal(err)
	}
	tb, jb := mustRead(t, txt), mustRead(t, jsonPath)
	if tb != goldenPrometheus {
		t.Errorf(".prom dump differs from WritePrometheus")
	}
	if jb != goldenJSON {
		t.Errorf(".json dump differs from WriteJSON")
	}
}
