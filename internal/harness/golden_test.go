package harness

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"albatross/internal/cluster"
)

// update rewrites the golden files from the current engine instead of
// comparing against them: go test ./internal/harness -run Golden -update.
// Only use it when a deliberate protocol change moves recorded timings (the
// LP-pinned sequencer rewrite did); the diff is the review surface.
var update = flag.Bool("update", false, "rewrite testdata golden files from the current engine")

// goldenOutput renders an experiment in the exact format stored under
// testdata: the human report, a separator, then the CSV data.
func goldenOutput(t *testing.T, s *Session, id string) string {
	t.Helper()
	e, err := ExperimentByID(id)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(s)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return rep.Render() + "\n--- CSV ---\n" + rep.CSV()
}

// TestGoldenReports proves the engine rebuild changed no observable result:
// the fig5 (ASP, broadcast-heavy) and fig7 (ATPG, RPC-heavy) reports must be
// byte-identical to the testdata captured from the pre-rebuild engine, and
// identical whether the experiment's runs execute sequentially or on eight
// concurrent workers.
func TestGoldenReports(t *testing.T) {
	if testing.Short() {
		t.Skip("golden experiments are long in -short mode")
	}
	for _, id := range []string{"fig5", "fig7"} {
		path := filepath.Join("testdata", "golden_"+id+".txt")
		if *update {
			if err := os.WriteFile(path, []byte(goldenOutput(t, &Session{}, id)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 8} {
			if got := goldenOutput(t, &Session{Workers: workers}, id); got != string(want) {
				t.Errorf("%s at parallelism %d: output differs from golden file\n got:\n%s\nwant:\n%s",
					id, workers, got, want)
			}
		}
	}
}

// mustExec runs one spec on a brand-new system (no session, no cache) and
// fails the test on a run or verification error.
func mustExec(t *testing.T, spec RunSpec, hooks ...Hook) Result {
	t.Helper()
	res, err := Exec(spec, hooks...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// freshSpec describes the original variant of a named application on a
// uniform platform with the harness defaults and nothing else.
func freshSpec(t *testing.T, appName string, clusters, perCluster int) RunSpec {
	t.Helper()
	app, err := AppByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	return (&Session{}).Spec(app, cluster.DAS(clusters, perCluster), false)
}

// TestDeterministicMetrics runs the same seeded configuration three times on
// fresh systems and requires the virtual end time AND the dispatched-event
// count to match exactly: not just the same answer, the same event-by-event
// schedule.
func TestDeterministicMetrics(t *testing.T) {
	for _, appName := range []string{"ASP", "SOR", "TSP"} {
		first := mustExec(t, freshSpec(t, appName, 2, 4))
		for i := 1; i < 3; i++ {
			res := mustExec(t, freshSpec(t, appName, 2, 4))
			if res.Elapsed != first.Elapsed {
				t.Errorf("%s run %d: elapsed %v, want %v", appName, i, res.Elapsed, first.Elapsed)
			}
			if res.Dispatched != first.Dispatched {
				t.Errorf("%s run %d: dispatched %d events, want %d", appName, i, res.Dispatched, first.Dispatched)
			}
		}
	}
}
