package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"albatross/internal/harness"
)

// TestRun drives the command in-process: -list prints every experiment id,
// -help exits 0, a command line the program cannot run exits 2 and a run
// that fails exits 1, each with its one message on stderr.
func TestRun(t *testing.T) {
	var stdout, stderr strings.Builder
	if err := run([]string{"-list"}, &stdout, &stderr); err != nil || stderr.Len() != 0 {
		t.Fatalf("-list: %v, stderr %q", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	exps := harness.Experiments()
	if len(lines) != len(exps) {
		t.Fatalf("-list printed %d lines for %d experiments", len(lines), len(exps))
	}
	for i, e := range exps {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != e.ID {
			t.Errorf("-list line %d is %q, want id %s first", i, lines[i], e.ID)
		}
	}

	dir := t.TempDir()
	absent := filepath.Join(dir, "absent.json")
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "csv", "table1.csv"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args   []string
		status int
		stderr string // how its first line starts
		report bool   // a report reaches stdout before the failure
	}{
		{[]string{"-help"}, 0, "Usage of dasbench:", false},
		{[]string{"-exp", "table1,nosuch"}, 2, `harness: unknown experiment "nosuch"`, false},
		{[]string{"-parallel", "-1"}, 2, "dasbench: -parallel must not be negative (got -1)", false},
		{[]string{"-exp", "table1", "-apps", "RA"}, 2, "dasbench: -apps cannot be combined with -exp; it is read only with -topo", false},
		{[]string{"-chaos", "-quick"}, 2, "flag provided but not defined: -quick", false},
		{[]string{"-nosuch"}, 2, "flag provided but not defined: -nosuch", false},
		{[]string{"-topo", absent}, 1, "-topo " + absent + ": ", false},
		{[]string{"-chaos", "-topo", absent}, 1, "-topo " + absent + ": ", false},
		{[]string{"-timeline", "NoApp"}, 1, `harness: unknown application "NoApp"`, false},
		{[]string{"-exp", "table1", "-csv", filepath.Join(file, "csv")}, 1, "mkdir " + file + ": ", true},
		{[]string{"-topo", "2x2", "-apps", "ATPG", "-csv", filepath.Join(file, "csv")}, 1, "mkdir " + file + ": ", true},
		{[]string{"-exp", "table1", "-csv", filepath.Join(dir, "csv")}, 1, "open " + filepath.Join(dir, "csv", "table1.csv") + ": ", true},
	} {
		stdout.Reset()
		stderr.Reset()
		status := exitStatus(run(tc.args, &stdout, &stderr))
		first, _, _ := strings.Cut(stderr.String(), "\n")
		if status != tc.status || !strings.HasPrefix(first, tc.stderr) ||
			strings.Count(stderr.String(), tc.stderr) != 1 || (stdout.Len() != 0) != tc.report {
			t.Errorf("%v: status %d, stderr %q, stdout %q; want status %d and stderr %q once",
				tc.args, status, stderr.String(), stdout.String(), tc.status, tc.stderr)
		}
	}
}

// TestRunChaos: -chaos without -topo runs the one sweep on DAS 4x4, every
// application completing in every row, writes its tables as CSV, then draws
// SOR original's timeline under the sweep's outage row.
func TestRunChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep in -short mode")
	}
	dir := t.TempDir()
	var stdout, stderr strings.Builder
	if err := run([]string{"-chaos", "-csv", dir}, &stdout, &stderr); err != nil {
		t.Fatalf("-chaos: %v, stderr %q", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"== grid-chaos: grid-scale fault tolerance on 4x4 (4 clusters, 16 compute nodes) ==\n",
		"\nSOR original on 4x4, loss 1.0%, 2s outage (4.290s virtual)\n",
		"\nloss 1% + 2s outage ", "\npartition + loss 1% ", "reroutes", "hold-drops",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-chaos output lacks %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, " 8/8 "); n != 5 {
		t.Errorf("%d of 5 scenarios had all 8 applications available:\n%s", n, out)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "chaos.csv"))
	if err != nil || !strings.Contains(string(csv), "scenario,Water") {
		t.Errorf("chaos.csv: %v, header malformed:\n%s", err, csv)
	}
}
