package harness

import (
	"reflect"
	"runtime"
	"testing"

	"albatross/internal/cluster"
)

// TestSearchTablesSameBytes: the applications that read their per-job
// searches from memoized tables — TSP, ATPG and IDA*, both variants —
// produce the same metrics, event counts, census and process resumes at
// GOMAXPROCS 1 as at GOMAXPROCS 4, and pass their verifiers in both. The
// first setting fills any table not yet filled, the second reads it warm;
// the apps' TestSearchTableMatchesLoop hold the fill itself to a plain loop
// at both settings.
func TestSearchTablesSameBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("six DAS 4x15 runs per GOMAXPROCS setting")
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, name := range []string{"TSP", "ATPG", "IDA*"} {
		app, err := AppByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []bool{false, true} {
			spec := RunSpec{App: app, Topo: cluster.DAS(4, 15), Optimized: opt, Params: Params}
			var res [2]Result
			for k, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				if res[k], err = Exec(spec); err != nil {
					t.Fatalf("GOMAXPROCS %d: %v", procs, err)
				}
				res[k].Wall = 0
			}
			if !reflect.DeepEqual(res[0], res[1]) {
				t.Errorf("%s: GOMAXPROCS 1 and 4 differ:\n%+v\n%+v", spec, res[0], res[1])
			}
		}
	}
}
