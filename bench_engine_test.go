// Hot-path engine benchmarks: raw event dispatch, process wakeups, RPC
// round-trips, and end-to-end application throughput (virtual sim-seconds
// simulated per wall-clock second).
//
// These are the numbers tracked across PRs in BENCH_engine.json; regenerate
// it with scripts/bench.sh. Run ad hoc with:
//
//	go test -run '^$' -bench 'Engine|RPCRoundTrip|EndToEnd' -benchmem .
package albatross

import (
	"testing"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/harness"
	"albatross/internal/netsim"
	"albatross/internal/orca"
	"albatross/internal/sim"
)

// BenchmarkEngineEvents measures pure event-queue throughput: b.N timer
// events with distinct timestamps, each insertion and removal exercising the
// time-ordered queue (the heap path).
func BenchmarkEngineEvents(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(time.Microsecond, tick)
		}
	}
	e.After(time.Microsecond, tick)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if n != b.N {
		b.Fatalf("ran %d events, want %d", n, b.N)
	}
}

// BenchmarkEngineSameInstantEvents measures dispatch of events that all fire
// at the current instant — the zero-delay case the ready ring serves.
func BenchmarkEngineSameInstantEvents(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(0, tick)
		}
	}
	e.After(0, tick)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if n != b.N {
		b.Fatalf("ran %d events, want %d", n, b.N)
	}
}

// BenchmarkEngineWakes measures the park/wake handoff cycle: two processes
// baton-pass through a pair of mailboxes, so every iteration is one Put
// (wake) plus one Get (park) on each side, all at the same virtual instant.
func BenchmarkEngineWakes(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	ping := sim.NewMailbox(e, "ping")
	pong := sim.NewMailbox(e, "pong")
	n := b.N
	var tok any = "tok" // pre-boxed: Put(i) would allocate per iteration
	e.Go("a", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			ping.Put(tok)
			pong.Get(p)
		}
	})
	e.Go("b", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			ping.Get(p)
			pong.Put(tok)
		}
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRPCRoundTrip measures a full simulated remote invocation on a
// two-node LAN: request serialization, delivery, dispatch, reply, and the
// caller's park/wake — the per-operation cost every application pays.
func BenchmarkRPCRoundTrip(b *testing.B) {
	b.ReportAllocs()
	sys := core.NewDAS(1, 2)
	obj := sys.RTS.NewObject("bench", 0, new(int))
	n := b.N
	sys.SpawnAt(1, "caller", func(w *core.Worker) {
		for i := 0; i < n; i++ {
			w.Invoke(obj, orca.Op{Name: "inc", ArgBytes: 8,
				Apply: func(s any) any { *(s.(*int))++; return nil }})
		}
	})
	if _, err := sys.Run(); err != nil {
		b.Fatal(err)
	}
	if *(obj.State().(*int)) != b.N {
		b.Fatal("lost invocations")
	}
}

// benchSpec describes the original variant of a named application on the
// harness parameter set; callers adjust Transport and Shards.
func benchSpec(b *testing.B, appName string, topo cluster.Topology) harness.RunSpec {
	b.Helper()
	app, err := harness.AppByName(appName)
	if err != nil {
		b.Fatal(err)
	}
	return harness.RunSpec{App: app, Topo: topo, Params: harness.Params}
}

// benchRuns executes the spec once per iteration (uncached) and reports
// virtual sim-seconds per wall-clock second — the headline metric for how
// large a platform/problem the simulator can model in real time. observe,
// when non-nil, sees every run's result.
func benchRuns(b *testing.B, spec harness.RunSpec, observe func(harness.Result)) {
	b.Helper()
	b.ReportAllocs()
	var simSecs float64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		res, err := harness.Exec(spec)
		if err != nil {
			b.Fatal(err)
		}
		if observe != nil {
			observe(res)
		}
		simSecs += res.Seconds()
	}
	if wall := time.Since(start).Seconds(); wall > 0 {
		b.ReportMetric(simSecs/wall, "simsec/wallsec")
	}
}

// benchEndToEnd runs one full application configuration per iteration.
func benchEndToEnd(b *testing.B, appName string, clusters, perCluster int) {
	benchRuns(b, benchSpec(b, appName, cluster.DAS(clusters, perCluster)), nil)
}

// The eight end-to-end benchmarks run every application of the paper's
// suite on a 2x8 wide-area system; together they cover every communication
// style the runtime serves. BENCH_apps.json tracks them across PRs.

// BenchmarkEndToEndASP is broadcast-dominated (sequencer-ordered updates).
func BenchmarkEndToEndASP(b *testing.B) { benchEndToEnd(b, "ASP", 2, 8) }

// BenchmarkEndToEndSOR is point-to-point/RPC-dominated (neighbor exchange).
func BenchmarkEndToEndSOR(b *testing.B) { benchEndToEnd(b, "SOR", 2, 8) }

// BenchmarkEndToEndWater is an all-to-all object-invocation exchange.
func BenchmarkEndToEndWater(b *testing.B) { benchEndToEnd(b, "Water", 2, 8) }

// BenchmarkEndToEndTSP is work-stealing with bound broadcasts.
func BenchmarkEndToEndTSP(b *testing.B) { benchEndToEnd(b, "TSP", 2, 8) }

// BenchmarkEndToEndATPG is static work distribution plus reductions.
func BenchmarkEndToEndATPG(b *testing.B) { benchEndToEnd(b, "ATPG", 2, 8) }

// BenchmarkEndToEndIDA is work-stealing with synchronous deepening rounds.
func BenchmarkEndToEndIDA(b *testing.B) { benchEndToEnd(b, "IDA*", 2, 8) }

// BenchmarkEndToEndRA is a storm of tiny asynchronous messages.
func BenchmarkEndToEndRA(b *testing.B) { benchEndToEnd(b, "RA", 2, 8) }

// BenchmarkEndToEndACP is iterative asynchronous neighbor updates.
func BenchmarkEndToEndACP(b *testing.B) { benchEndToEnd(b, "ACP", 2, 8) }

// benchEndToEndT is benchEndToEnd on the gateway transport layer: the same
// original program, with WAN messages coalesced into frames and striped over
// parallel streams. Comparing RA/ASP with their plain EndToEnd runs shows the
// simulator-side cost of framing (fewer, larger wire events) next to the
// simulated benefit.
func benchEndToEndT(b *testing.B, appName string, clusters, perCluster int) {
	spec := benchSpec(b, appName, cluster.DAS(clusters, perCluster))
	spec.Transport = harness.DefaultTransport
	benchRuns(b, spec, nil)
}

// tiered64 loads the checked-in 64-cluster tiered topology.
func tiered64(b *testing.B) cluster.Topology {
	b.Helper()
	topo, err := cluster.LoadTopology("examples/topologies/tiered64.json")
	if err != nil {
		b.Fatal(err)
	}
	return topo
}

// benchEndToEndGrid runs one application per iteration on the checked-in
// 64-cluster tiered topology (examples/topologies/tiered64.json): the
// grid-scale smoke for sparse adjacency, multi-hop store-and-forward
// routing, and per-link-class metering, end to end through the harness.
func benchEndToEndGrid(b *testing.B, appName string) {
	benchRuns(b, benchSpec(b, appName, tiered64(b)), nil)
}

// BenchmarkEndToEndGridASP is the broadcast-heavy ASP across 64 tiered
// clusters — sequenced traffic forwarded over backbone and regional links.
func BenchmarkEndToEndGridASP(b *testing.B) { benchEndToEndGrid(b, "ASP") }

// BenchmarkEndToEndGridRA is the RA message storm across 64 tiered clusters —
// the stress case for per-hop forwarding records and link queueing.
func BenchmarkEndToEndGridRA(b *testing.B) { benchEndToEndGrid(b, "RA") }

// BenchmarkEndToEndRATransport is the RA message storm on the coalescing/
// striping runtime — the best case for framing (tiny asynchronous messages).
func BenchmarkEndToEndRATransport(b *testing.B) { benchEndToEndT(b, "RA", 2, 8) }

// BenchmarkEndToEndASPTransport is the broadcast-heavy ASP on the transport
// runtime; sequenced rows exercise frame ordering under fan-out.
func BenchmarkEndToEndASPTransport(b *testing.B) { benchEndToEndT(b, "ASP", 2, 8) }

// benchEngineMode runs one full application configuration per iteration
// with the given engine shard count (0 = the sequential engine), reporting
// virtual sim-seconds per wall-clock second. Comparing an application's
// Sequential and Shards4 variants measures what the cluster-sharded engine
// buys end to end; results are byte-identical in either mode, so only the
// wall clock differs. Speedup over sequential requires free cores: with
// GOMAXPROCS (or the machine) at 1 the sharded engine serializes its LPs
// and only the window-synchronization overhead shows.
func benchEngineMode(b *testing.B, appName string, clusters, perCluster, shards int) {
	spec := benchSpec(b, appName, cluster.DAS(clusters, perCluster))
	spec.Shards = shards
	benchRuns(b, spec, nil)
}

// The engine-mode pairs below benchmark shardable applications on a
// four-cluster platform, sequentially and with four LPs. Water and ATPG are
// the original pair from the engine's introduction; TSP, IDA* and RA are the
// event-dense crawlers the LP-pinned sequencer and shard-safe collectives
// unlocked — the runs where parallel dispatch has the most wall-clock to
// reclaim. BENCH_engine.json records both sides of each pair.

func BenchmarkEngineModeWaterSequential(b *testing.B) { benchEngineMode(b, "Water", 4, 2, 0) }

func BenchmarkEngineModeWaterShards4(b *testing.B) { benchEngineMode(b, "Water", 4, 2, 4) }

func BenchmarkEngineModeATPGSequential(b *testing.B) { benchEngineMode(b, "ATPG", 4, 2, 0) }

func BenchmarkEngineModeATPGShards4(b *testing.B) { benchEngineMode(b, "ATPG", 4, 2, 4) }

func BenchmarkEngineModeTSPSequential(b *testing.B) { benchEngineMode(b, "TSP", 4, 2, 0) }

func BenchmarkEngineModeTSPShards4(b *testing.B) { benchEngineMode(b, "TSP", 4, 2, 4) }

func BenchmarkEngineModeIDASequential(b *testing.B) { benchEngineMode(b, "IDA*", 4, 2, 0) }

func BenchmarkEngineModeIDAShards4(b *testing.B) { benchEngineMode(b, "IDA*", 4, 2, 4) }

func BenchmarkEngineModeRASequential(b *testing.B) { benchEngineMode(b, "RA", 4, 2, 0) }

func BenchmarkEngineModeRAShards4(b *testing.B) { benchEngineMode(b, "RA", 4, 2, 4) }

// BenchmarkEngineShardedWindows measures the sharded engine's window
// machinery in isolation: four LPs each dispatch a chain of local events
// ten per synchronization window, so the per-op cost is one event dispatch
// plus a tenth of a fence crossing. The sequential BenchmarkEngineEvents is
// the baseline this overhead compares against.
func BenchmarkEngineShardedWindows(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	lps := e.Shard(4)
	e.SetLookahead(time.Millisecond)
	ran := make([]int, len(lps)) // per LP, written once: the LPs tick concurrently
	per := b.N/len(lps) + 1
	for i, lp := range lps {
		i, lp := i, lp
		n := 0
		var tick func()
		tick = func() {
			if n++; n < per {
				lp.At(lp.Now()+100*time.Microsecond, tick)
			} else {
				ran[i] = n
			}
		}
		lp.At(100*time.Microsecond, tick)
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	total := 0
	for _, n := range ran {
		total += n
	}
	if total < b.N {
		b.Fatalf("ran %d events, want >= %d", total, b.N)
	}
}

// BenchmarkShardedWindowSync measures the sharded engine's window
// synchronization under live cross-LP traffic: four LPs each run a local
// event chain and every eighth step additionally schedules a remote event
// on the next LP exactly one lookahead away — the tightest legal cross-LP
// schedule, so the fences stay load-bearing rather than idle. Besides the
// usual ns/op it reports windows/op and fences/op (windows minus
// inline-chained solo windows, i.e. barrier participations), which
// BENCH_engine.json tracks so a regression in window batching is visible
// even when raw wall clock hides it.
func BenchmarkShardedWindowSync(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	lps := e.Shard(4)
	e.SetLookahead(time.Millisecond)
	// Each slot is touched only by its owner LP's thread: the local chain of
	// LP i and the cross events LP i-1 aims at it both run on thread i.
	counts := make([]int, len(lps))
	per := b.N/len(lps) + 1
	for i := range lps {
		i, lp, next := i, lps[i], lps[(i+1)%len(lps)]
		ni := (i + 1) % len(lps)
		bump := func() { counts[ni]++ }
		n := 0
		var tick func()
		tick = func() {
			counts[i]++
			if n++; n >= per {
				return
			}
			if n%8 == 0 {
				lp.AtShard(next, lp.Now()+time.Millisecond, bump)
			}
			lp.At(lp.Now()+200*time.Microsecond, tick)
		}
		lp.At(200*time.Microsecond, tick)
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total < b.N {
		b.Fatalf("ran %d events, want >= %d", total, b.N)
	}
	var windows, fences uint64
	for _, st := range e.ShardStats() {
		windows += st.Windows
		fences += st.Windows - st.Chained
	}
	b.ReportMetric(float64(windows)/float64(b.N), "windows/op")
	b.ReportMetric(float64(fences)/float64(b.N), "fences/op")
}

// BenchmarkShardedGridASP runs broadcast-heavy ASP on the 64-cluster tiered
// topology with four LPs — the configuration the per-route lookahead matrix
// was built for — and reports the total windows and fence participations
// per run next to throughput. These are the acceptance counters for the
// matrix: the fixed baseline entry in BENCH_engine.json holds the scalar
// lookahead engine's numbers (145,060 windows per run, every one a fence).
func BenchmarkShardedGridASP(b *testing.B) {
	spec := benchSpec(b, "ASP", tiered64(b))
	spec.Shards = 4
	var windows, fences uint64
	benchRuns(b, spec, func(res harness.Result) {
		for _, st := range res.LPs {
			windows += st.Windows
			fences += st.Windows - st.Chained
		}
	})
	b.ReportMetric(float64(windows)/float64(b.N), "windows/op")
	b.ReportMetric(float64(fences)/float64(b.N), "fences/op")
}

// BenchmarkNetSendLAN measures the flattened intracluster send path in
// isolation: one Send plus its delivery event per iteration.
func BenchmarkNetSendLAN(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	net := netsim.New(e, cluster.Topology{Clusters: 1, NodesPerCluster: 2}, cluster.DASParams())
	delivered := 0
	net.SetHandler(1, func(m netsim.Msg) { delivered++ })
	for i := 0; i < b.N; i++ {
		net.Send(netsim.Msg{From: 0, To: 1, Kind: netsim.KindData, Size: 64})
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}
