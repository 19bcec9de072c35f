package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const treeText = `w1 - 20 1n 40f
w2 w1 20 1n 40f
w3 w2 20 1n 40f
w4 w3 20 1n 40f
`

func writeSpec(t *testing.T, spec string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg.tree"), []byte(treeText), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "path.spec")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		buf := make([]byte, 0, 1<<16)
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(buf)
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	return out, ferr
}

const goodSpec = `# two-stage path
inv1 120 8p seg.tree w4 w4=30f
inv2 90 6p seg.tree w4 w4=25f,w2=5f
`

func TestRunTwoStages(t *testing.T) {
	path := writeSpec(t, goodSpec)
	out, err := capture(t, func() error { return run(path, "0") })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"inv1", "inv2", "path arrival", "2 stages"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunWithInputRise(t *testing.T) {
	path := writeSpec(t, goodSpec)
	if _, err := capture(t, func() error { return run(path, "100p") }); err != nil {
		t.Fatal(err)
	}
	if err := run(path, "bogus"); err == nil {
		t.Fatal("bad rise must fail")
	}
}

func TestRunSpecErrors(t *testing.T) {
	cases := []struct {
		name, spec string
	}{
		{"short-line", "inv1 120 8p seg.tree\n"},
		{"bad-rdriver", "inv1 xx 8p seg.tree w4\n"},
		{"bad-tgate", "inv1 120 xx seg.tree w4\n"},
		{"missing-tree", "inv1 120 8p nope.tree w4\n"},
		{"bad-load", "inv1 120 8p seg.tree w4 w4:30f\n"},
		{"bad-load-val", "inv1 120 8p seg.tree w4 w4=xx\n"},
		{"bad-sink", "inv1 120 8p seg.tree nosuch\n"},
		{"empty", "# nothing\n"},
	}
	for _, c := range cases {
		path := writeSpec(t, c.spec)
		if err := run(path, "0"); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if err := run(filepath.Join(t.TempDir(), "missing.spec"), "0"); err == nil {
		t.Error("missing spec must fail")
	}
}

func TestRunBadTreeFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg.tree"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := filepath.Join(dir, "p.spec")
	if err := os.WriteFile(spec, []byte("inv1 120 8p seg.tree w4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(spec, "0"); err == nil {
		t.Fatal("malformed tree must fail")
	}
}
