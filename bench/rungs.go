package main

import (
	"fmt"
	"os"
	"slices"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/coll"
	"albatross/internal/core"
	"albatross/internal/faults"
	"albatross/internal/harness"
	"albatross/internal/netsim"
	"albatross/internal/orca"
	"albatross/internal/sim"
)

// An isolation rung times one layer's public functions alone, at a fixed
// operation count sized so the rung runs for at least ~0.3 s on the
// reference host. Every rung generates its load from inside a running
// engine — each completion schedules the next operation — so it measures
// the steady-state path, not the growth of a pre-queued backlog.
type rung struct {
	// metrics names the per-layer metrics the rung yields, in the order
	// run returns them; a workload lists the first to select the rung.
	metrics []string
	run     func() ([]float64, error)
}

var rungs = []rung{
	{[]string{"sim.dispatch_ns"}, func() ([]float64, error) { return rungDispatch(time.Microsecond) }},
	{[]string{"sim.dispatch_ready_ns"}, func() ([]float64, error) { return rungDispatch(0) }},
	{[]string{"sim.switch_ns"}, rungSwitch},
	{[]string{"netsim.lan_send_ns"}, rungLANSend},
	{[]string{"orca.rpc_ns"}, func() ([]float64, error) { return rungRPC(1, 300_000) }},
	{[]string{"orca.data_ns"}, func() ([]float64, error) { return rungData(1, false, 300_000) }},
	{[]string{"orca.bcast_central_ns"}, func() ([]float64, error) { return rungBcast(orca.NewCentralSequencer(0)) }},
	{[]string{"orca.bcast_rotating_ns"}, func() ([]float64, error) { return rungBcast(orca.NewRotatingSequencer()) }},
	{[]string{"orca.bcast_migrating_ns"}, func() ([]float64, error) { return rungBcast(orca.NewMigratingSequencer()) }},
	{[]string{"coll.allreduce_ns"}, func() ([]float64, error) { return rungColl(false) }},
	{[]string{"coll.barrier_ns"}, func() ([]float64, error) { return rungColl(true) }},
	{[]string{"sim.window_sync_ns", "sim.windows_per_kevent"}, rungWindowSync},
	{[]string{"netsim.wan_hop_ns"}, func() ([]float64, error) { return rungWANRing(harness.Params) }},
	{[]string{"orca.rpc_wan_ns"}, func() ([]float64, error) { return rungRPC(2, 150_000) }},
	{[]string{"core.combine_ns"}, rungCombine},
	{[]string{"netsim.wan_framed_ns"}, func() ([]float64, error) { return rungWANRing(framedParams()) }},
	{[]string{"netsim.wan_multihop_ns"}, rungMultihop},
	{[]string{"netsim.construct_c64_us"}, rungConstruct},
	{[]string{"cluster.parse_us"}, rungParse},
	{[]string{"cluster.allpairs_c64_us"}, rungAllPairs},
	{[]string{"faults.verdict_ns"}, rungVerdict},
	{[]string{"orca.rel_ns"}, func() ([]float64, error) { return rungData(2, true, 100_000) }},
}

// runRungs runs the rungs a workload selects and returns their metrics.
func runRungs(selected []string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, r := range rungs {
		if !slices.Contains(selected, r.metrics[0]) {
			continue
		}
		vals, err := r.run()
		if err != nil {
			return nil, fmt.Errorf("rung %s: %w", r.metrics[0], err)
		}
		for i, m := range r.metrics {
			out[m] = vals[i]
		}
	}
	for _, name := range selected {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("no rung yields %s", name)
		}
	}
	return out, nil
}

// framedParams is the harness parameter set with the default gateway
// transport (coalescing, striping) folded in.
func framedParams() cluster.Params {
	p := harness.Params
	t := harness.DefaultTransport
	p.MaxFrameBytes, p.CoalesceWindow, p.WANStreams = t.MaxFrameBytes, t.CoalesceWindow, t.WANStreams
	return p
}

func perOp(d time.Duration, ops int, unit time.Duration) []float64 {
	return []float64{float64(d) / float64(unit) / float64(ops)}
}

// rungDispatch chains n timer events, each scheduling the next step later:
// a positive step takes the time-ordered heap, zero the ready ring.
func rungDispatch(step time.Duration) ([]float64, error) {
	const n = 20_000_000
	e := sim.NewEngine()
	left := n
	var tick func()
	tick = func() {
		if left--; left > 0 {
			e.After(step, tick)
		}
	}
	e.After(step, tick)
	t0 := time.Now()
	err := e.Run()
	return perOp(time.Since(t0), n, time.Nanosecond), err
}

// rungSwitch has two processes pass a token through a pair of mailboxes;
// every Put wakes the peer and every Get parks the caller, so one iteration
// is two wakes.
func rungSwitch() ([]float64, error) {
	const n = 200_000
	e := sim.NewEngine()
	ping, pong := sim.NewMailbox(e, "ping"), sim.NewMailbox(e, "pong")
	var tok any = "tok"
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
	t0 := time.Now()
	err := e.Run()
	return perOp(time.Since(t0), 2*n, time.Nanosecond), err
}

// bounce keeps tokens circulating through net: every delivery at a node
// sends the token on to next(node), until n messages have been delivered.
func bounce(e *sim.Engine, net *netsim.Network, starts []cluster.NodeID, next func(cluster.NodeID) cluster.NodeID, n int) (time.Duration, error) {
	left := n
	handler := func(m netsim.Msg) {
		if left--; left > 0 {
			net.Send(netsim.Msg{From: m.To, To: next(m.To), Kind: netsim.KindData, Size: 64})
		}
	}
	seen := map[cluster.NodeID]bool{}
	for _, s := range starts {
		for at := s; !seen[at]; at = next(at) {
			seen[at] = true
			net.SetHandler(at, handler)
		}
	}
	e.At(0, func() {
		for _, s := range starts {
			net.Send(netsim.Msg{From: s, To: next(s), Kind: netsim.KindData, Size: 64})
		}
	})
	t0 := time.Now()
	err := e.Run()
	if err == nil && left > 0 {
		err = fmt.Errorf("%d of %d messages undelivered", left, n)
	}
	return time.Since(t0), err
}

// rungLANSend bounces one 64-byte message between the two nodes of a
// single cluster: one Send plus its delivery event per operation.
func rungLANSend() ([]float64, error) {
	const n = 3_000_000
	e := sim.NewEngine()
	net := netsim.New(e, cluster.DAS(1, 2), harness.Params)
	d, err := bounce(e, net, []cluster.NodeID{0}, func(at cluster.NodeID) cluster.NodeID { return 1 - at }, n)
	return perOp(d, n, time.Nanosecond), err
}

// rungWANRing circulates eight tokens around the four clusters of a DAS 4x2
// implicit mesh: each operation is one message from a compute node to its
// peer in the next cluster (access hop, gateway, WAN pipe, remote gateway,
// delivery) through whichever WAN pipeline params selects.
func rungWANRing(params cluster.Params) ([]float64, error) {
	const n = 400_000
	e := sim.NewEngine()
	topo := cluster.DAS(4, 2)
	net := netsim.New(e, topo, params)
	var starts []cluster.NodeID
	for i := 0; i < topo.Compute(); i++ {
		starts = append(starts, cluster.NodeID(i))
	}
	next := func(at cluster.NodeID) cluster.NodeID {
		return topo.Node((topo.ClusterOf(at)+1)%topo.Clusters, topo.IndexInCluster(at))
	}
	d, err := bounce(e, net, starts, next, n)
	return perOp(d, n, time.Nanosecond), err
}

// rungMultihop bounces four tokens between the two clusters of tiered64
// that are the most store-and-forward hops apart.
func rungMultihop() ([]float64, error) {
	const n = 150_000
	topo, err := cluster.LoadTopology(tiered64)
	if err != nil {
		return nil, err
	}
	a, b, most := 0, 0, 0
	for u := 0; u < topo.Clusters; u++ {
		for d := 0; d < topo.Clusters; d++ {
			hops := 0
			for cur := u; cur != d; cur = topo.WAN.Next(cur, d) {
				hops++
			}
			if hops > most {
				a, b, most = u, d, hops
			}
		}
	}
	e := sim.NewEngine()
	net := netsim.New(e, topo, harness.Params)
	peer := map[cluster.NodeID]cluster.NodeID{}
	var starts []cluster.NodeID
	for i := 0; i < 2; i++ {
		na, nb := topo.Node(a, i), topo.Node(b, i)
		peer[na], peer[nb] = nb, na
		starts = append(starts, na, nb)
	}
	d, err := bounce(e, net, starts, func(at cluster.NodeID) cluster.NodeID { return peer[at] }, n)
	return perOp(d, n, time.Nanosecond), err
}

// rungRPC has one worker in the last of `clusters` two-node clusters invoke
// an object owned by node 0: a LAN round trip on one cluster, a WAN round
// trip on two.
func rungRPC(clusters, n int) ([]float64, error) {
	sys := core.NewSystem(core.Config{Topology: cluster.DAS(clusters, 2), Params: harness.Params})
	obj := sys.RTS.NewObject("rung", 0, new(int))
	inc := orca.Op{Name: "inc", ArgBytes: 8, Apply: func(s any) any { *(s.(*int))++; return nil }}
	sys.SpawnAt(cluster.NodeID(sys.Topo.Compute()-1), "caller", func(w *core.Worker) {
		for i := 0; i < n; i++ {
			w.Invoke(obj, inc)
		}
	})
	t0 := time.Now()
	_, err := sys.Run()
	d := time.Since(t0)
	if err == nil && *(obj.State().(*int)) != n {
		err = fmt.Errorf("lost invocations")
	}
	return perOp(d, n, time.Nanosecond), err
}

// rungData ping-pongs a tagged data message between node 0 and the last
// node of `clusters` two-node clusters via SendDataID/RecvDataID; with
// reliable set the intercluster leg rides the ARQ layer (no faults).
func rungData(clusters int, reliable bool, n int) ([]float64, error) {
	sys := core.NewSystem(core.Config{Topology: cluster.DAS(clusters, 2), Params: harness.Params})
	if reliable {
		sys.RTS.EnableReliability(orca.RelConfig{})
	}
	there, back := sys.RTS.InternTag(orca.Tag{Op: "there"}), sys.RTS.InternTag(orca.Tag{Op: "back"})
	far := cluster.NodeID(sys.Topo.Compute() - 1)
	var tok any = "tok"
	sys.SpawnAt(0, "a", func(w *core.Worker) {
		for i := 0; i < n; i++ {
			w.SendID(far, there, 64, tok)
			w.RecvID(back)
		}
	})
	sys.SpawnAt(far, "b", func(w *core.Worker) {
		for i := 0; i < n; i++ {
			w.RecvID(there)
			w.SendID(0, back, 64, tok)
		}
	})
	t0 := time.Now()
	_, err := sys.Run()
	return perOp(time.Since(t0), 2*n, time.Nanosecond), err
}

// rungBcast issues totally-ordered broadcasts on a DAS 2x8 from one writer
// in each cluster, so the distributed sequencers pass their token.
func rungBcast(seqr orca.Sequencer) ([]float64, error) {
	const n = 30_000
	sys := core.NewSystem(core.Config{Topology: cluster.DAS(2, 8), Params: harness.Params, Sequencer: seqr})
	obj := sys.RTS.NewReplicated("rung", func(cluster.NodeID) any { return new(int) })
	inc := orca.Op{Name: "inc", ArgBytes: 8, Apply: func(s any) any { *(s.(*int))++; return nil }}
	for _, at := range []cluster.NodeID{0, 8} {
		sys.SpawnAt(at, "writer", func(w *core.Worker) {
			for i := 0; i < n/2; i++ {
				w.Invoke(obj, inc)
			}
		})
	}
	t0 := time.Now()
	_, err := sys.Run()
	d := time.Since(t0)
	if err == nil && *(obj.Replica(15).(*int)) != n {
		err = fmt.Errorf("replica missed broadcasts")
	}
	return perOp(d, n, time.Nanosecond), err
}

// rungColl runs wide-area collectives over all 16 workers of a DAS 4x4.
func rungColl(barrier bool) ([]float64, error) {
	const n = 15_000
	sys := core.NewSystem(core.Config{Topology: cluster.DAS(4, 4), Params: harness.Params})
	comm := coll.New(sys, "rung", coll.WideArea)
	sum := func(acc, v any) any { // a fold starts from a nil accumulator
		if acc == nil {
			return v
		}
		return acc.(int) + v.(int)
	}
	sys.SpawnWorkers("w", func(w *core.Worker) {
		for i := 0; i < n; i++ {
			if barrier {
				comm.Barrier(w)
			} else {
				comm.AllReduce(w, 8, 1, sum)
			}
		}
	})
	t0 := time.Now()
	_, err := sys.Run()
	return perOp(time.Since(t0), n, time.Nanosecond), err
}

// rungWindowSync runs two LPs, each a local event chain whose every eighth
// step also schedules an event on the other LP exactly one lookahead away —
// the tightest legal cross-LP schedule, so the fences stay load-bearing.
func rungWindowSync() ([]float64, error) {
	const n = 1_000_000
	e := sim.NewEngine()
	lps := e.Shard(2)
	e.SetLookahead(time.Millisecond)
	counts := make([]int, len(lps)) // slot i is touched only on LP i's thread
	for i := range lps {
		i, lp, next, ni := i, lps[i], lps[1-i], 1-i
		bump := func() { counts[ni]++ }
		k := 0
		var tick func()
		tick = func() {
			counts[i]++
			if k++; k >= n/2 {
				return
			}
			if k%8 == 0 {
				lp.AtShard(next, lp.Now()+time.Millisecond, bump)
			}
			lp.At(lp.Now()+200*time.Microsecond, tick)
		}
		lp.At(200*time.Microsecond, tick)
	}
	t0 := time.Now()
	err := e.Run()
	d := time.Since(t0)
	events := counts[0] + counts[1]
	var windows uint64
	for _, st := range e.ShardStats() {
		windows += st.Windows
	}
	return []float64{
		float64(d) / float64(events),
		float64(windows) / float64(events) * 1000,
	}, err
}

// rungCombine pushes items from the four workers of one cluster to their
// peers in the other through a Combiner with RA's settings; senders pause
// after every 32 items so buffers fill and flush as in a running program.
func rungCombine() ([]float64, error) {
	const n = 800_000
	sys := core.NewSystem(core.Config{Topology: cluster.DAS(2, 4), Params: harness.Params})
	cb := core.NewCombiner(sys, "rung", 8192, 500*time.Microsecond)
	tag := sys.RTS.InternTag(orca.Tag{Op: "item"})
	var tok any = "tok"
	sys.SpawnWorkers("w", func(w *core.Worker) {
		if w.Cluster() == 1 {
			for i := 0; i < n/4; i++ {
				w.RecvID(tag)
			}
			return
		}
		to := sys.Topo.Node(1, sys.Topo.IndexInCluster(w.Node))
		for i := 0; i < n/4; i++ {
			cb.SendID(w, to, tag, 16, tok)
			if i%32 == 31 {
				w.Compute(20 * time.Microsecond)
			}
		}
	})
	t0 := time.Now()
	_, err := sys.Run()
	return perOp(time.Since(t0), n, time.Nanosecond), err
}

// rungConstruct builds the network of the 64-cluster tiered topology.
func rungConstruct() ([]float64, error) {
	const n = 2_000
	topo, err := cluster.LoadTopology(tiered64)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		netsim.New(sim.NewEngine(), topo, harness.Params)
	}
	return perOp(time.Since(t0), n, time.Microsecond), nil
}

func rungParse() ([]float64, error) {
	const n = 3_000
	data, err := os.ReadFile(tiered64)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := cluster.ParseTopology(data); err != nil {
			return nil, err
		}
	}
	return perOp(time.Since(t0), n, time.Microsecond), nil
}

// rungAllPairs computes the all-pairs route-cost floor the lookahead matrix
// is derived from, with each class's latency as its per-hop cost.
func rungAllPairs() ([]float64, error) {
	const n = 3_000
	topo, err := cluster.LoadTopology(tiered64)
	if err != nil {
		return nil, err
	}
	g := topo.WAN
	t0 := time.Now()
	for i := 0; i < n; i++ {
		g.AllPairsCost(topo.Clusters, func(class int) time.Duration { return g.Classes[class].Latency })
	}
	return perOp(time.Since(t0), n, time.Microsecond), nil
}

// rungVerdict asks the chaos workload's injector for WAN fault verdicts,
// cycling over the ring's directed neighbour pairs.
func rungVerdict() ([]float64, error) {
	const n = 20_000_000
	inj, err := faults.NewInjector(faults.Plan{Seed: chaosSeed, Default: faults.PairProbs{Drop: chaosLoss}})
	if err != nil {
		return nil, err
	}
	const clusters = 9
	inj.Bind(clusters)
	m := netsim.Msg{Kind: netsim.KindData, Size: 64}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		cs := i % clusters
		inj.WANTransit(time.Duration(i), cs, (cs+1)%clusters, m)
	}
	d := time.Since(t0)
	if c := inj.Counters(); c.Inspected != n || c.Drops == 0 {
		return nil, fmt.Errorf("injector counted %d inspected, %d drops", c.Inspected, c.Drops)
	}
	return perOp(d, n, time.Nanosecond), nil
}
