// Package harness runs the paper's experiments: speedup curves for every
// application in original and optimized form (Figures 1-14), the summary
// bar charts (Figures 15-16), the microbenchmarks (Table 1), the
// application characteristics (Table 2) and the intercluster traffic tables
// (Tables 4-5).
package harness

import (
	"fmt"
	"time"

	"albatross/internal/apps/acp"
	"albatross/internal/apps/asp"
	"albatross/internal/apps/atpg"
	"albatross/internal/apps/ida"
	"albatross/internal/apps/ra"
	"albatross/internal/apps/sor"
	"albatross/internal/apps/tsp"
	"albatross/internal/apps/water"
	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/orca"
)

// AppSpec describes one benchmark application to the harness. Every
// application must be safe on the cluster-sharded parallel engine: it uses
// no cross-cluster shared mutable state outside the runtime's message paths
// and no global termination shortcuts (DESIGN.md §5c has the audit).
type AppSpec struct {
	Name string
	// Sequencer selects the broadcast protocol for a variant; nil means
	// the platform default (central on one cluster, rotating on more).
	Sequencer func(optimized bool) orca.Sequencer
	// Build wires the application into a fresh system and returns its
	// result verifier, or nil for a measurement with nothing to verify.
	Build func(sys *core.System, optimized bool) func() error
}

// Apps lists the paper's eight applications in its Table 2/3 order.
var Apps = []AppSpec{
	{
		// Shard-safe: owner-partitioned state; all cross-cluster exchange goes
		// through runtime messages (RPC push or cache/reduce services).
		Name: "Water",
		Build: func(sys *core.System, opt bool) func() error {
			return water.Build(sys, water.Default(), opt)
		},
	},
	{
		// Shard-safe: best-tour updates are sequenced broadcasts, which the
		// LP-pinned sequencer orders entirely through WAN messages; all
		// other exchange is owner-executed RPC (see DESIGN.md §5d).
		Name: "TSP",
		Build: func(sys *core.System, opt bool) func() error {
			return tsp.Build(sys, tsp.Default(), opt)
		},
	},
	{
		// Shard-safe: the pivot-row broadcasts run on the LP-pinned
		// sequencer; row buffers are refcounted atomically into per-engine
		// pools and every other structure is per-node (see DESIGN.md §5b).
		Name:      "ASP",
		Sequencer: func(opt bool) orca.Sequencer { return asp.Sequencer(opt) },
		Build: func(sys *core.System, opt bool) func() error {
			return asp.Build(sys, asp.Default())
		},
	},
	{
		// Shard-safe: faults are statically partitioned; the only shared
		// objects are invoked through RPCs that execute at their owners.
		Name: "ATPG",
		Build: func(sys *core.System, opt bool) func() error {
			return atpg.Build(sys, atpg.Default(), opt)
		},
	},
	{
		// Shard-safe: steals are owner-executed RPCs, phase termination is
		// decided from the replicated idle map (ordered broadcasts), and
		// iterations end in a collective allreduce — no shared counters.
		Name: "IDA*",
		Build: func(sys *core.System, opt bool) func() error {
			return ida.Build(sys, ida.Default(), opt)
		},
	},
	{
		// Shard-safe: updates travel as tagged messages (optionally through
		// the cluster combiner), batch pools are per cluster, and each
		// worker terminates locally once its own positions are determined.
		Name: "RA",
		Build: func(sys *core.System, opt bool) func() error {
			return ra.Build(sys, ra.Default(), opt)
		},
	},
	{
		// Shard-safe: prunings apply per node, worklists live at their own
		// node, and round termination is a collective allreduce over
		// sent/applied counts — no shared flags.
		Name: "ACP",
		Build: func(sys *core.System, opt bool) func() error {
			return acp.Build(sys, acp.Default(), opt)
		},
	},
	{
		// Shard-safe: rows are owner-written, ghost exchange is tagged
		// messages, and the convergence test is a collective allreduce
		// every worker folds identically — no shared scalars.
		Name: "SOR",
		Build: func(sys *core.System, opt bool) func() error {
			return sor.Build(sys, sor.Default(), opt)
		},
	},
}

// AppByName returns the spec with the given name.
func AppByName(name string) (AppSpec, error) {
	for _, a := range Apps {
		if a.Name == name {
			return a, nil
		}
	}
	return AppSpec{}, fmt.Errorf("harness: unknown application %q", name)
}

// Params is the network parameter set used by all experiments.
var Params = cluster.DASParams()

// DefaultTransport is Params with the calibrated gateway transport layer
// (frame coalescing + multipath striping, netsim/transport.go) on, as used by
// the "transport" experiment and dasbench -transport: frames of up to 32 kB
// sealed after at most 500us, striped over 4 parallel WAN streams. The window
// is a fraction of the 2.7ms WAN round trip, so latency-sensitive RPCs pay
// little while message floods (RA, ASP) pack densely.
var DefaultTransport = func() cluster.Params {
	p := Params
	p.MaxFrameBytes, p.CoalesceWindow, p.WANStreams = 32<<10, 500*time.Microsecond, 4
	return p
}()
