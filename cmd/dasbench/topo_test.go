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

// TestLoadTopology covers both forms the -topo flag takes: a uniform CxN
// shape and a configuration file, plus the malformed values of each, which
// must be errors naming the value.
func TestLoadTopology(t *testing.T) {
	topo, name, err := loadTopology("4x16")
	if err != nil {
		t.Fatal(err)
	}
	if topo.Clusters != 4 || topo.NodesPerCluster != 16 || topo.WAN != nil || name != "4x16" {
		t.Errorf("4x16: got %+v labelled %q", topo, name)
	}

	good := filepath.Join("..", "..", "examples", "topologies", "tiered64.json")
	topo, name, err = loadTopology(good)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Clusters != 64 || topo.WAN == nil || name != "tiered64.json" {
		t.Errorf("example config: got %d clusters, WAN=%v, labelled %q", topo.Clusters, topo.WAN, name)
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"roots": {"count": 0}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, arg := range []string{"0x16", "4x0", "-2x8", "4x", "x16", "4x16x2",
		filepath.Join(t.TempDir(), "absent.json"), bad} {
		if _, _, err := loadTopology(arg); err == nil {
			t.Errorf("-topo %q accepted", arg)
		} else if !strings.Contains(err.Error(), arg) {
			t.Errorf("-topo %q: error should name the value: %v", arg, err)
		}
	}
}

// TestRunTopoShape runs one application on a uniform shape and checks the
// report carries the intercluster-traffic and per-link tables.
func TestRunTopoShape(t *testing.T) {
	var b strings.Builder
	if err := runTopo(&b, &harness.Session{}, "2x4", "ATPG", ""); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"applications on 2x4", "topo-traffic:", "topo-links:", "c0->c1.0", "c1->c0.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("output misses %q:\n%s", want, out)
		}
	}
}
