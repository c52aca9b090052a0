package main

import "strings"

// metricDef is one named metric. BENCHMARK.json repeats name, unit and
// better (and, for end-to-end metrics, bound); a test holds the two equal.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the simulator sees, per workload, all
// host-side. The bounds are what the reference host can resolve, not what
// one would wish: other tenants slow a CPU-bound pass by up to 2x for 10-20 s
// at a time, and ten runs of one commit at ten seeds put the quartiles of the
// two timings 2-9% of the median apart in a calm hour and up to 20% apart in
// a busy one. Allocation counts repeat within 0.1% at one seed and differ by
// up to 5% between seeds (msg-storm-framed: frame packing follows the
// instance).
//
// fail_share is reported and compared too but is not a driver metric: it
// must stay 0, and a relative bound on 0 means nothing — the driver reads it
// from the result line's failed/attempted instead.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"simsec_per_wallsec", "ratio", "higher", 0.25},
	{"allocs_per_pass", "count", "lower", 0.15},
	{"alloc_mb_per_pass", "MB", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

const failShare = "fail_share"

// spanMetrics are the per-pass span sums (source 1), besides the per-run
// apps.<app>-<variant>_ms names.
var spanMetrics = []string{"cluster.load_ms", "core.construct_ms", "apps.build_ms", "sim.run_ms", "apps.verify_ms"}

// perLayer lists every per-layer metric of the traced run. A metric a
// workload does not exercise (a rung assigned elsewhere, a run not in its
// list, shard counters on the sequential engine) reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{name: n, unit: unit, better: better})
		}
	}
	// 1. spans around the public calls
	add("ms", "lower", spanMetrics...)
	for _, app := range appKeys {
		add("ms", "lower", "apps."+app+"-orig_ms", "apps."+app+"-opt_ms")
	}
	// 2. counts from the public surfaces
	add("count", "lower", "sim.events")
	add("ns", "lower", "sim.ns_per_event")
	add("s", "lower", "sim.virtual_s") // no real direction: moves only if the model changes
	add("ratio", "higher", "sim.virtual_busy_share")
	add("count", "lower", "sim.windows", "sim.fences")
	add("ratio", "lower", "sim.idle_window_share", "sim.fence_wait_share", "sim.lp_event_imbalance")
	add("count", "lower", "netsim.intra_msgs", "netsim.inter_msgs")
	add("MB", "lower", "netsim.inter_mb")
	add("count", "lower", "netsim.wan_frames")
	add("ratio", "higher", "netsim.packing_ratio")
	add("s", "lower", "netsim.wan_busy_s")
	add("ms", "lower", "netsim.wan_p99_wait_ms")
	add("count", "lower", "netsim.reroutes", "netsim.held_msgs", "netsim.hold_drops")
	add("count", "lower", "orca.rpcs", "orca.bcasts", "orca.data_msgs", "orca.rel_wrapped", "orca.rel_retransmits")
	add("ratio", "lower", "orca.retransmit_ratio")
	add("count", "lower", "faults.inspected", "faults.drops")
	add("s", "lower", "runtime.cpu_s")
	add("ratio", "lower", "runtime.sys_share")
	add("count", "lower", "runtime.gc_cycles")
	add("ms", "lower", "runtime.gc_pause_ms")
	// 3. CPU-profile shares
	for _, b := range cpuBuckets {
		add("ratio", "lower", b+".cpu_share")
	}
	// 4. isolation rungs
	for _, r := range rungs {
		for _, m := range r.metrics {
			unit := "ns"
			switch {
			case m == "sim.windows_per_kevent":
				unit = "1/kevent"
			case strings.HasSuffix(m, "_us"):
				unit = "us"
			}
			add(unit, "lower", m)
		}
	}
	add("ratio", "lower", "trace.overhead_share")
	return out
}
