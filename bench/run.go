package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/faults"
	"albatross/internal/harness"
	"albatross/internal/orca"
	"albatross/internal/rng"
)

// env is one workload instantiated at one seed: everything a run needs that
// does not change between runs.
type env struct {
	w    *workload
	seed uint64
	apps map[string]appBuilder
}

func newEnv(w *workload, seed uint64) (*env, error) {
	e := &env{w: w, seed: seed, apps: map[string]appBuilder{}}
	for _, rs := range w.runs {
		if _, ok := e.apps[rs.app]; ok {
			continue
		}
		a, err := appFor(rs.app, seed)
		if err != nil {
			return nil, err
		}
		e.apps[rs.app] = a
	}
	return e, nil
}

// runCounts are the public counters of one run (source 2 of the per-layer
// metrics), read from the surfaces each layer already exports.
type runCounts struct {
	events       uint64
	busy         time.Duration // sum of Proc.BusyTime over every process
	computeNodes int

	// sharded engine only
	windows, fences, idleWindows uint64
	fenceWait                    time.Duration
	lpEvents                     []uint64
	runWall                      time.Duration // wall time of System.Run, the fence-wait denominator

	intraMsgs, interMsgs, interBytes int64
	wanFrames, framedMsgs            int64
	wanBusy, wanP99                  time.Duration
	reroutes, held, holdDrops        int64

	rpcs, bcasts, dataMsgs     int64
	relWrapped, relRetransmits uint64

	inspected, drops uint64
}

// runOutcome is what one application run produced.
type runOutcome struct {
	spec    runSpec
	virtual time.Duration
	digest  uint64
	err     error
	counts  runCounts // filled only when tracing
}

// execRun performs one run of the workload: load the topology, assemble the
// system, build the application, run the simulation, verify the result. It
// drives the same public calls the harness does and touches none of the
// harness's run entry points or globals. shards overrides the workload's
// shard count (the sharded workload's sequential references pass 0).
func (e *env) execRun(rs runSpec, shards int, tr *tracer, pass int) runOutcome {
	out := runOutcome{spec: rs}
	app := e.apps[rs.app]
	run := tr.begin("run", -1, pass, rs.String())

	sp := tr.begin("cluster.load", run, pass, rs.String())
	topo := cluster.DAS(4, 15)
	if e.w.topoFile != "" {
		var err error
		if topo, err = cluster.LoadTopology(e.w.topoFile); err != nil {
			out.err = err
			return out
		}
	}
	tr.end(sp)

	sp = tr.begin("core.construct", run, pass, rs.String())
	params := harness.Params
	if e.w.transport {
		params = framedParams()
	}
	var seqr orca.Sequencer
	if app.sequencer != nil {
		seqr = app.sequencer(rs.opt)
	}
	sys := core.NewSystem(core.Config{Topology: topo, Params: params, Sequencer: seqr, Shards: shards})
	var inj *faults.Injector
	if e.w.chaos {
		plan := faults.Plan{
			Seed:      mixSeed(e.seed, chaosSeed),
			Default:   faults.PairProbs{Drop: chaosLoss},
			LinkDowns: faults.CutRingSegment(topo.WAN, 0, chaosCutStart, chaosCutDur),
		}
		var err error
		if inj, err = faults.NewInjector(plan); err != nil {
			out.err = err
			return out
		}
		sys.Net.SetFaultPolicy(inj)
		sys.RTS.EnableReliability(orca.RelConfig{RTO: 4 * worstOneWay(topo)})
		sys.Engine.SetDeadline(chaosDeadline)
	}
	tr.end(sp)

	sp = tr.begin("apps.build", run, pass, rs.String())
	verify := app.build(sys, rs.opt)
	tr.end(sp)

	sp = tr.begin("sim.run", run, pass, rs.String())
	t0 := time.Now()
	m, err := sys.Run()
	runWall := time.Since(t0)
	tr.end(sp)

	sp = tr.begin("apps.verify", run, pass, rs.String())
	if err == nil {
		err = verify()
	}
	tr.end(sp)
	tr.end(run)

	out.virtual = m.Elapsed
	out.digest = digest(m)
	if err != nil {
		out.err = fmt.Errorf("%s: %w", rs, err)
	}
	if tr != nil {
		out.counts = collectCounts(sys, m, inj, runWall)
	}
	return out
}

// digest hashes a run's metrics: elapsed, net stats, op stats, link and
// class reports. Equal configurations produce equal digests on either
// engine; a difference between commits means the model changed.
func digest(m core.Metrics) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", m)
	return rng.Hash64(h.Sum64())
}

func collectCounts(sys *core.System, m core.Metrics, inj *faults.Injector, runWall time.Duration) runCounts {
	c := runCounts{
		events:       sys.Engine.Dispatched(),
		computeNodes: sys.Topo.Compute(),
		runWall:      runWall,
	}
	for _, p := range sys.Engine.Procs() {
		c.busy += p.BusyTime()
	}
	for _, lp := range sys.Engine.Shards() {
		for _, p := range lp.Procs() {
			c.busy += p.BusyTime()
		}
	}
	for _, st := range sys.ShardStats() {
		c.windows += st.Windows
		c.fences += st.Windows - st.Chained
		c.idleWindows += st.IdleWindows
		c.fenceWait += st.FenceWait
		c.lpEvents = append(c.lpEvents, st.Events)
	}
	intra, inter := m.Net.TotalIntra(), m.Net.TotalInter()
	c.intraMsgs, c.interMsgs, c.interBytes = intra.Msgs, inter.Msgs, inter.Bytes
	c.wanFrames, c.framedMsgs = m.Net.WANFrames().Msgs, m.Net.FramedMsgs()
	for _, cr := range m.Classes {
		c.wanBusy += cr.Busy
		if cr.P99Wait > c.wanP99 {
			c.wanP99 = cr.P99Wait
		}
	}
	c.reroutes, c.held, c.holdDrops = m.Net.Reroutes(), m.Net.HeldMsgs(), m.Net.HoldDrops()
	c.rpcs, c.bcasts, c.dataMsgs = m.Ops.RPCs, m.Ops.Bcasts, m.Ops.DataMsgs
	rel := sys.RTS.RelStats()
	c.relWrapped, c.relRetransmits = rel.Wrapped, rel.Retransmits
	if inj != nil {
		fc := inj.Counters()
		c.inspected, c.drops = fc.Inspected, fc.Drops
	}
	return c
}
