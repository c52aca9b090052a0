package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"albatross/internal/harness"
)

// TestRunTopoExample runs the checked-in 64-cluster example configuration
// end to end and checks the report carries per-link-class statistics for
// both declared classes — the acceptance path behind `dasbench -topo`.
func TestRunTopoExample(t *testing.T) {
	if testing.Short() {
		t.Skip("64-cluster end-to-end run is long in -short mode")
	}
	var b strings.Builder
	err := runTopo(&b, &harness.Session{}, filepath.Join("..", "..", "examples", "topologies", "tiered64.json"),
		"ASP", "")
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"per-link-class WAN statistics", "backbone", "regional", "grid["} {
		if !strings.Contains(out, want) {
			t.Errorf("output misses %q:\n%s", want, out)
		}
	}
}

// TestRunTopoErrors covers the flag's error paths: missing file, malformed
// configuration, and an unknown application name.
func TestRunTopoErrors(t *testing.T) {
	var b strings.Builder
	if err := runTopo(&b, &harness.Session{}, filepath.Join(t.TempDir(), "absent.json"), "SOR", ""); err == nil {
		t.Error("missing topology file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"classes": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runTopo(&b, &harness.Session{}, bad, "SOR", ""); err == nil {
		t.Error("malformed topology accepted")
	}
	good := filepath.Join("..", "..", "examples", "topologies", "tiered64.json")
	if err := runTopo(&b, &harness.Session{}, good, "NoSuchApp", ""); err == nil {
		t.Error("unknown application accepted")
	} else if !strings.Contains(err.Error(), "NoSuchApp") {
		t.Errorf("error should name the application: %v", err)
	}
}
