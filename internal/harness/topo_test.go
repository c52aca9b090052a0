package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"albatross/internal/cluster"
)

// topoGoldenOutput renders the asymmetric-platform report in the stored
// golden format (human report, separator, CSV).
func topoGoldenOutput(t *testing.T) string {
	t.Helper()
	apps := make([]AppSpec, 0, 2)
	for _, name := range []string{"ASP", "SOR"} {
		app, err := AppByName(name)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
	}
	rep, err := TopoReport(&Session{}, cluster.Irregular(8, 16, 32), apps)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Render() + "\n--- CSV ---\n" + rep.CSV()
}

// TestTopoGoldenIrregular pins the heterogeneous-Sizes end-to-end behavior:
// ASP and SOR on the asymmetric 3x[8,16,32] platform must render a report
// byte-identical to the stored golden file (regenerate deliberately with
// -update). This covers Topology.Sizes end to end — node numbering, gateway
// placement, WAN metering, and the per-link-class statistics table.
func TestTopoGoldenIrregular(t *testing.T) {
	if testing.Short() {
		t.Skip("golden experiments are long in -short mode")
	}
	path := filepath.Join("testdata", "golden_irregular.txt")
	if *update {
		if err := os.WriteFile(path, []byte(topoGoldenOutput(t)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readGolden(t, "irregular")
	if got := topoGoldenOutput(t); got != want {
		t.Errorf("asymmetric topo report differs from golden file\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestTopoReportTieredClasses runs one application on a two-tier DSL topology
// and requires the report to carry a per-link-class statistics table with one
// populated row per declared class: trunk transmissions (including forwarded
// hops) and access-link transmissions metered separately.
func TestTopoReportTieredClasses(t *testing.T) {
	app, err := AppByName("SOR")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := TopoReport(&Session{}, identityTieredTopo(t), []AppSpec{app})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 4 {
		t.Fatalf("report has %d tables, want 4", len(rep.Tables))
	}
	classes := rep.Tables[1]
	seen := map[string]bool{}
	for _, row := range classes.Rows {
		seen[row[2]] = true
		if row[3] == "0" {
			t.Errorf("class %s row has zero transmissions: %v", row[2], row)
		}
	}
	if !seen["trunk"] || !seen["access"] {
		t.Errorf("per-class table misses a declared class: got %v", seen)
	}
	if !strings.Contains(rep.Title, "grid[") {
		t.Errorf("report title should identify the DSL topology, got %q", rep.Title)
	}
}

// TestTopoReportTransportTiered proves the gateway transport layer composes
// with multi-hop routing end to end: with coalescing and striping on, the
// tiered run still verifies and the summary reports a packing ratio > 1.
func TestTopoReportTransportTiered(t *testing.T) {
	app, err := AppByName("RA")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := TopoReport(&Session{Transport: true}, identityTieredTopo(t), []AppSpec{app})
	if err != nil {
		t.Fatal(err)
	}
	summary := rep.Tables[0]
	for _, row := range summary.Rows {
		if row[5] == "0" {
			t.Errorf("%s %s: transport enabled but no frames: %v", row[0], row[1], row)
		}
	}
}

// TestTopoReportRejectsInvalid covers the error path the CLIs rely on: a
// topology that fails validation must surface as an error, not a panic.
func TestTopoReportRejectsInvalid(t *testing.T) {
	app, err := AppByName("SOR")
	if err != nil {
		t.Fatal(err)
	}
	bad := cluster.Topology{Clusters: 2, NodesPerCluster: 0}
	if _, err := TopoReport(&Session{}, bad, []AppSpec{app}); err == nil {
		t.Fatal("invalid topology accepted")
	}
}

// TestSORMoreProcessorsThanRowsIsError: a platform with more compute nodes
// than SOR has rows is user input (dasbench -topo), so Exec reports it as a
// one-line error — the config of the original report, a ring of nine
// 48-node clusters against NX = 384 — on either engine.
func TestSORMoreProcessorsThanRowsIsError(t *testing.T) {
	app, err := AppByName("SOR")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := cluster.ParseTopology([]byte(`{
		"classes": [{"name": "backbone", "latency": "20ms", "mbit": 155}],
		"roots": {"count": 9, "interconnect": "ring", "class": "backbone", "nodes": [48]}}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 2} {
		spec := (&Session{}).Spec(app, topo, false)
		spec.shards = shards
		_, err := Exec(spec)
		if err == nil || !strings.Contains(err.Error(), "sor: 432 processors need at least one row each (NX=384)") {
			t.Errorf("shards=%d: Exec = %v, want the too-many-processors error", shards, err)
		}
	}
}
