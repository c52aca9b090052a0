package main

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
	"albatross/internal/rng"
)

// runSpec names one application run of a workload's run list.
type runSpec struct {
	app string // key into appKeys: water, tsp, asp, atpg, ida, ra, acp, sor
	opt bool
}

func (r runSpec) String() string {
	if r.opt {
		return r.app + "-opt"
	}
	return r.app + "-orig"
}

// appKeys lists the eight applications in the paper's Table 2/3 order; the
// per-run span metrics are apps.<key>-<variant>_ms.
var appKeys = []string{"water", "tsp", "asp", "atpg", "ida", "ra", "acp", "sor"}

// workload is one named set of inputs: a fixed run list on one platform.
// The run lists are part of the benchmark's definition (BENCHMARK.json
// repeats each "why"); changing one makes every recorded number
// incomparable, so shorten a set by cutting passes, never runs.
type workload struct {
	name string
	why  string
	runs []runSpec

	topoFile  string // "" selects the DAS 4x15 implicit mesh
	shards    int    // Config.Shards; 0 is the sequential engine
	transport bool   // harness.DefaultTransport folded into Params
	chaos     bool   // 1% loss + ring segment 0 cut 1s..3s, reliability on

	// rungs are the isolation rungs measured in this workload's traced run.
	rungs []string
}

func both(apps ...string) []runSpec {
	var out []runSpec
	for _, a := range apps {
		out = append(out, runSpec{a, false}, runSpec{a, true})
	}
	return out
}

func orig(apps ...string) []runSpec {
	var out []runSpec
	for _, a := range apps {
		out = append(out, runSpec{a, false})
	}
	return out
}

const (
	tiered64 = "examples/topologies/tiered64.json"
	ring9    = "examples/topologies/ring9.json"
)

var workloads = []workload{
	{
		name: "kernel-apps",
		why:  "TSP, ATPG, IDA* orig on DAS 4x15: host time is ~88% application kernel, so every substrate change should not move it and only a kernel change shows",
		runs: orig("tsp", "atpg", "ida"),
	},
	{
		name: "sim-apps",
		why:  "Water, ASP, ACP, SOR orig+opt on DAS 4x15: substrate-bound RPC, all three broadcast paths, collectives and ghost exchange at ~1 us/event; process-switch, orca and coll changes show here",
		runs: both("water", "asp", "acp", "sor"),
		rungs: []string{"sim.dispatch_ns", "sim.dispatch_ready_ns", "sim.switch_ns", "netsim.lan_send_ns",
			"orca.rpc_ns", "orca.data_ns", "orca.bcast_central_ns", "orca.bcast_rotating_ns",
			"orca.bcast_migrating_ns", "coll.allreduce_ns", "coll.barrier_ns"},
	},
	{
		name:   "sim-apps-sharded",
		why:    "the sim-apps run list with Config.Shards=2: the same layers through the sharded engine, ROADMAP item 3's target and the guard that a sequential gain does not cost the sharded path",
		runs:   both("water", "asp", "acp", "sor"),
		shards: 2,
		rungs:  []string{"sim.window_sync_ns"}, // also yields sim.windows_per_kevent
	},
	{
		name:  "msg-storm",
		why:   "RA orig on DAS 4x15: 1.85M events of tiny asynchronous WAN messages through the plain pipeline; engine dispatch, netsim and the orca data path dominate, kernel ~18%",
		runs:  orig("ra"),
		rungs: []string{"netsim.wan_hop_ns", "orca.rpc_wan_ns", "core.combine_ns"},
	},
	{
		name:      "msg-storm-framed",
		why:       "RA orig with the default gateway transport: the same traffic through the framed WAN pipeline (coalescing, striping, reassembly), so a fold of the two pipelines must hold both",
		runs:      orig("ra"),
		transport: true,
		rungs:     []string{"netsim.wan_framed_ns"},
	},
	{
		name:     "grid64",
		why:      "ASP, SOR, Water, ACP, RA orig on tiered64.json: declared-graph topology, multi-hop store-and-forward, per-class metering and 64-cluster construction with route floors on every run",
		runs:     orig("asp", "sor", "water", "acp", "ra"),
		topoFile: tiered64,
		rungs:    []string{"netsim.wan_multihop_ns", "netsim.construct_c64_us", "cluster.parse_us", "cluster.allpairs_c64_us"},
	},
	{
		name:     "chaos-ring9",
		why:      "Water, ASP, ACP, SOR, RA orig on ring9.json with 1% loss and a backbone cut, reliability on: fault verdicts, ARQ retransmit and dedup, reroute and hold queues",
		runs:     orig("water", "asp", "acp", "sor", "ra"),
		topoFile: ring9,
		chaos:    true,
		rungs:    []string{"faults.verdict_ns", "orca.rel_ns"},
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// mixSeed folds the benchmark seed into one application's default seed.
// Seed 0 keeps every Default() instance (the ones the goldens pin).
func mixSeed(benchSeed, def uint64) uint64 {
	if benchSeed == 0 {
		return def
	}
	return rng.Hash64(rng.Hash64(benchSeed) ^ def)
}

// appBuilder wires one application instance into a fresh system and returns
// its verifier, like harness.AppSpec.Build but with the instance's seed
// taken from the benchmark seed. The program under test sees only the
// generated Config.
type appBuilder struct {
	build     func(sys *core.System, opt bool) func() error
	sequencer func(opt bool) orca.Sequencer // nil: the platform default
}

// appFor instantiates one application at the benchmark seed.
//
// TSP and IDA* keep their Default() instance at every seed. Their cost is
// exponentially sensitive to the instance — over Config.Seed 1..700 one TSP
// run took 0.04 s to 3.2 s of host time and one IDA* run 0.03 s to several
// seconds, with virtual time, events and allocations moving independently
// of each other — so a seeded instance would make every end-to-end metric
// of kernel-apps a function of the seed rather than of the code, and runs
// at different seeds could not be held to one bound. Every other
// application does near-constant work across seeds (Water, ASP: identical
// event counts; RA +-0.3%, ATPG +-3%, ACP +-10%).
func appFor(key string, seed uint64) (appBuilder, error) {
	switch key {
	case "water":
		cfg := water.Default()
		cfg.Seed = mixSeed(seed, cfg.Seed)
		return appBuilder{build: func(sys *core.System, opt bool) func() error { return water.Build(sys, cfg, opt) }}, nil
	case "tsp":
		cfg := tsp.Default() // pinned, see above
		return appBuilder{build: func(sys *core.System, opt bool) func() error { return tsp.Build(sys, cfg, opt) }}, nil
	case "asp":
		cfg := asp.Default()
		cfg.Seed = mixSeed(seed, cfg.Seed)
		return appBuilder{
			build:     func(sys *core.System, opt bool) func() error { return asp.Build(sys, cfg) },
			sequencer: asp.Sequencer,
		}, nil
	case "atpg":
		cfg := atpg.Default()
		cfg.Seed = mixSeed(seed, cfg.Seed)
		return appBuilder{build: func(sys *core.System, opt bool) func() error { return atpg.Build(sys, cfg, opt) }}, nil
	case "ida":
		cfg := ida.Default() // pinned, see above
		return appBuilder{build: func(sys *core.System, opt bool) func() error { return ida.Build(sys, cfg, opt) }}, nil
	case "ra":
		cfg := ra.Default()
		cfg.Seed = mixSeed(seed, cfg.Seed)
		return appBuilder{build: func(sys *core.System, opt bool) func() error { return ra.Build(sys, cfg, opt) }}, nil
	case "acp":
		cfg := acp.Default()
		cfg.Seed = mixSeed(seed, cfg.Seed)
		return appBuilder{build: func(sys *core.System, opt bool) func() error { return acp.Build(sys, cfg, opt) }}, nil
	case "sor":
		// SOR's grid is fixed by its boundary condition; it has no seed.
		cfg := sor.Default()
		return appBuilder{build: func(sys *core.System, opt bool) func() error { return sor.Build(sys, cfg, opt) }}, nil
	}
	return appBuilder{}, fmt.Errorf("unknown application %q", key)
}

// Chaos scenario of chaos-ring9 (the grid chaos sweep's "partition + loss 1%").
const (
	chaosLoss     = 0.01
	chaosCutStart = time.Second
	chaosCutDur   = 2 * time.Second
	chaosDeadline = 2 * time.Minute
	chaosSeed     = 0xda5
)

// worstOneWay is the largest routed one-way latency between two clusters of
// a declared-graph topology; the chaos workload's RTO is four times it
// (twice the worst round trip), as in the grid chaos sweep.
func worstOneWay(topo cluster.Topology) time.Duration {
	g := topo.WAN
	classOf := make(map[[2]int]int, 2*len(g.Links))
	for _, l := range g.Links {
		classOf[[2]int{l.A, l.B}] = l.Class
		classOf[[2]int{l.B, l.A}] = l.Class
	}
	var worst time.Duration
	for u := 0; u < topo.Clusters; u++ {
		for d := 0; d < topo.Clusters; d++ {
			var path time.Duration
			for cur := u; cur != d; {
				next := g.Next(cur, d)
				path += g.Classes[classOf[[2]int{cur, next}]].Latency
				cur = next
			}
			if path > worst {
				worst = path
			}
		}
	}
	return worst
}
