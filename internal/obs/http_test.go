package obs

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerPrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("eed_test_requests_total", "test counter").Add(3)

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("GET: code=%d ctype=%q err=%v", resp.StatusCode, resp.Header.Get("Content-Type"), err)
	}
	if !strings.Contains(string(body), "eed_test_requests_total 3") {
		t.Fatalf("exposition missing counter:\n%s", body)
	}

	resp, err = srv.Client().Post(srv.URL, "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("POST: code=%d, want 405", resp.StatusCode)
	}
}
