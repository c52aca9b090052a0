package harness

import (
	"fmt"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/faults"
	"albatross/internal/orca"
	"albatross/internal/sim"
)

// RunSpec fully determines one run's bytes: which application variant, on
// which platform and network, under which fault plan. Two equal specs
// produce identical results, which is what lets a Session memoize on it.
type RunSpec struct {
	App       AppSpec
	Topo      cluster.Topology
	Optimized bool
	Params    cluster.Params // network and gateway transport
	// shards is core.Config.Shards, set only by the sequential≡sharded
	// identity tests; it changes wall-clock behavior only, never results, and
	// leaves with the sharded engine.
	shards int
	// Faults, when non-nil, installs a seeded injector built from the plan
	// and enables the reliability layer, whose retransmit timeout orca sizes
	// to the platform — also for a plan that injects nothing, so fault-free
	// baselines of a sweep pay the same (constant) cost of reliable channels.
	Faults *faults.Plan
	// Deadline, when positive, aborts the run with a *sim.DeadlineError once
	// virtual time passes it.
	Deadline time.Duration
}

// String tags errors: "ASP on 4x16 opt=true", plus the fault plan if any.
func (sp RunSpec) String() string {
	tag := fmt.Sprintf("%s on %s opt=%v", sp.App.Name, sp.Topo, sp.Optimized)
	if sp.Faults != nil {
		tag += fmt.Sprintf(" faults=%+v", *sp.Faults)
	}
	return tag
}

// runKey is the comparable projection of a RunSpec the session cache keys
// on: the application by name, the topology by its String and per-cluster
// sizes (plus the WAN graph's identity, so two graphs that merely print alike
// never alias), the fault plan by its printed form, everything else by value.
type runKey struct {
	app       string
	topo      string
	wan       *cluster.Graph
	optimized bool
	params    cluster.Params
	shards    int // leaves with internal/sim/shard.go
	faults    string
	deadline  time.Duration
}

func (sp RunSpec) key() runKey {
	k := runKey{
		app:       sp.App.Name,
		topo:      fmt.Sprint(sp.Topo, sp.Topo.Sizes),
		wan:       sp.Topo.WAN,
		optimized: sp.Optimized,
		params:    sp.Params,
		shards:    sp.shards,
		deadline:  sp.Deadline,
	}
	if sp.Faults != nil {
		k.faults = fmt.Sprintf("%+v", *sp.Faults)
	}
	return k
}

// baseline is the 1-CPU run a spec's speedup is relative to: the paper
// computes each variant's speedup against its own single-processor run. One
// CPU has no network to parameterize, frame, shard or fault, so the baseline
// drops those fields and every sweep shares one cached run per variant.
func baseline(sp RunSpec) RunSpec {
	return RunSpec{App: sp.App, Topo: cluster.DAS(1, 1), Optimized: sp.Optimized, Params: Params}
}

// Hook customizes a freshly assembled system before the application is
// built. Everything that is a function value — a message tap, a fault-event
// listener, a WAN profile, an audit callback — attaches this way, so it is
// never part of a spec or its cache key. in is the run's fault injector (nil
// without a fault plan); netsim exposes no getter for the installed policy.
type Hook func(sys *core.System, in *faults.Injector)

// Result is everything one run reports.
type Result struct {
	core.Metrics
	Dispatched uint64     // events the engine dispatched
	Census     sim.Census // what scheduled them; sums to Dispatched on a drained run
	Resumes    uint64     // switches into process coroutines
	Rel        orca.RelStats
	Faults     faults.Counters
	// Wall is the wall-clock time the run took: it describes the simulator,
	// not the simulation, and is not part of the byte-identity surface.
	Wall time.Duration
}

// Exec assembles the spec's platform, applies the hooks, builds the
// application, runs it to completion and verifies its result against the
// application's sequential reference. It is the one place an application is
// built and run; it keeps no state and caches nothing (see Session.Run). The
// Result is meaningful even when an error is returned — a run that hit its
// deadline still reports how far it got.
func Exec(spec RunSpec, hooks ...Hook) (Result, error) {
	var res Result
	wan, err := spec.Topo.Graph(spec.Params)
	if err != nil {
		return res, fmt.Errorf("%s: %w", spec, err)
	}
	var in *faults.Injector
	if spec.Faults != nil {
		if in, err = faults.NewInjector(*spec.Faults); err == nil {
			err = spec.Faults.ValidateOn(wan, spec.Topo.Clusters)
		}
		if err != nil {
			return res, fmt.Errorf("%s: %w", spec, err)
		}
	}
	var seqr orca.Sequencer
	if spec.App.Sequencer != nil {
		seqr = spec.App.Sequencer(spec.Optimized)
	}
	sys := core.NewSystem(core.Config{
		Topology:  spec.Topo,
		Params:    spec.Params,
		Sequencer: seqr,
		Shards:    spec.shards,
	})
	if in != nil {
		sys.Net.SetFaultPolicy(in)
		sys.RTS.EnableReliability(orca.RelConfig{})
	}
	if spec.Deadline > 0 {
		sys.Engine.SetDeadline(spec.Deadline)
	}
	for _, h := range hooks {
		h(sys, in)
	}
	verify := spec.App.Build(sys, spec.Optimized)
	start := time.Now()
	m, err := sys.Run()
	wall := time.Since(start)
	res = Result{
		Metrics:    m,
		Dispatched: sys.Engine.Dispatched(),
		Census:     sys.Engine.Census(),
		Resumes:    sys.Engine.Resumes(),
		Rel:        sys.RTS.RelStats(),
		Wall:       wall,
	}
	if in != nil {
		res.Faults = in.Counters()
	}
	if err == nil && verify != nil {
		err = verify()
	}
	if err != nil {
		return res, fmt.Errorf("%s: %w", spec, err)
	}
	return res, nil
}
