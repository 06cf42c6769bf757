package main

import (
	"bytes"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"sgxbounds/internal/serve"
	"sgxbounds/internal/serve/store"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// newDaemon stands up a real single-node sgxd over a manual queue, so the
// goldens render the daemon's real wire format, not canned JSON.
func newDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Store: st, Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Abort()
	})
	return ts
}

// runCommand runs one sgxctl command against the test daemon and returns
// the combined golden rendering of its two output streams.
func runCommand(t *testing.T, base string, run func(c *client) error) string {
	t.Helper()
	var out, errOut bytes.Buffer
	c := &client{base: base, out: &out, errOut: &errOut}
	if err := run(c); err != nil {
		t.Fatalf("command failed: %v", err)
	}
	return fmt.Sprintf("-- stdout --\n%s-- stderr --\n%s", out.String(), errOut.String())
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s drifted:\n--- want ---\n%s--- got ---\n%s", name, want, got)
	}
}
