//go:build !race

package ra

import (
	"testing"

	"albatross/internal/cluster"
	"albatross/internal/core"
)

// TestAllocsPerRunRegression pins the allocation count of one full RA run
// (system assembly + setup + the whole retrograde sweep). The reverse graph
// is memoized per Config and batches/updates travel through pools,
// so the count is dominated by fixed per-run structures and scales with
// processors, not with positions or messages. The budget has ~50% headroom
// over the measured count; reintroducing per-position or per-message
// allocation blows through it immediately.
//
// Excluded under the race detector: instrumentation inflates allocation
// counts and the budget is meaningless there.
func TestAllocsPerRunRegression(t *testing.T) {
	cfg := testCfg()
	Sequential(cfg) // warm the shared memoized reference
	for _, opt := range []bool{false, true} {
		got := testing.AllocsPerRun(3, func() {
			sys := core.NewSystem(core.Config{
				Topology: cluster.DAS(4, 2),
				Params:   cluster.DASParams(),
			})
			verify := Build(sys, cfg, opt)
			if _, err := sys.Run(); err != nil {
				t.Fatalf("run opt=%v: %v", opt, err)
			}
			if err := verify(); err != nil {
				t.Fatalf("verify opt=%v: %v", opt, err)
			}
		})
		budget := 8_000.0 // measured ~2.7k
		if opt {
			budget = 30_000 // measured ~16.5k (combiner flush timers dominate)
		}
		if got > budget {
			t.Errorf("opt=%v: %.0f allocs/run, budget %.0f", opt, got, budget)
		}
		t.Logf("opt=%v: %.0f allocs/run", opt, got)
	}
}
