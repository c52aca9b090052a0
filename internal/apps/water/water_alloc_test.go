//go:build !race

package water

import (
	"testing"

	"albatross/internal/cluster"
	"albatross/internal/core"
)

// TestAllocSetup pins what building one Water run on DAS 4x15 allocates —
// system assembly plus Build, nothing run. Setup is linear in the processor
// count per worker; deriving each rank's senders from every other rank's
// targets made it cubic (21.6k allocations of the build at p = 60), which
// this bound fails. (Excluded under the race detector like the other alloc
// budgets.)
func TestAllocSetup(t *testing.T) {
	cfg := Default()
	for _, opt := range []bool{false, true} {
		got := testing.AllocsPerRun(3, func() {
			sys := core.NewSystem(core.Config{Topology: cluster.DAS(4, 15), Params: cluster.DASParams()})
			Build(sys, cfg, opt)
			sys.Engine.Shutdown()
		})
		budget := 3_500.0 // measured 2,222 (23,825 with the cubic senders)
		if opt {
			budget = 8_000 // measured 5,262 (27,341): coordinators per (cluster, remote node)
		}
		if got > budget {
			t.Errorf("opt=%v: %.0f allocs/build, budget %.0f", opt, got, budget)
		}
	}
}
