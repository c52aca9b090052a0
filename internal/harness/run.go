package harness

import (
	"fmt"
	"strings"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/faults"
	"albatross/internal/netsim"
	"albatross/internal/orca"
	"albatross/internal/sim"
	"albatross/internal/trace"
)

// RunSpec fully determines one run's bytes: which application variant, on
// which platform and network, under which fault plan. Two equal specs
// produce identical results, which is what lets a Session memoize on it.
type RunSpec struct {
	App       AppSpec
	Topo      cluster.Topology
	Optimized bool
	Params    cluster.Params
	Transport Transport
	// shards is core.Config.Shards, set only by the sequential≡sharded
	// identity tests; it changes wall-clock behavior only, never results, and
	// leaves with the sharded engine.
	shards int
	// Faults, when non-nil, installs a seeded injector built from the plan
	// and enables the reliability layer with Rel — also for a plan that
	// injects nothing, so fault-free baselines of a sweep pay the same
	// (constant) cost of reliable channels.
	Faults *faults.Plan
	Rel    orca.RelConfig
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
	transport Transport
	shards    int // leaves with internal/sim/shard.go
	faults    string
	rel       orca.RelConfig
	deadline  time.Duration
}

func (sp RunSpec) key() runKey {
	k := runKey{
		app:       sp.App.Name,
		topo:      fmt.Sprint(sp.Topo, sp.Topo.Sizes),
		wan:       sp.Topo.WAN,
		optimized: sp.Optimized,
		params:    sp.Params,
		transport: sp.Transport,
		shards:    sp.shards,
		rel:       sp.Rel,
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

// withBaseline expands one speedup measurement into its run set.
func withBaseline(sp RunSpec) []RunSpec { return []RunSpec{baseline(sp), sp} }

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
	Rel        orca.RelStats
	Faults     faults.Counters
	// Stalled lists the reliable channels whose senders gave up, for
	// post-mortem diagnosis of unavailable runs (empty on success).
	Stalled []string
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
	params := applyTransport(spec.Params, spec.Transport)
	wan, err := spec.Topo.Graph(params)
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
		Params:    params,
		Sequencer: seqr,
		Shards:    spec.shards,
	})
	if in != nil {
		sys.Net.SetFaultPolicy(in)
		sys.RTS.EnableReliability(spec.Rel)
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
		Rel:        sys.RTS.RelStats(),
		Stalled:    sys.RTS.StalledChannels(),
		Wall:       wall,
	}
	if in != nil {
		res.Faults = in.Counters()
	}
	if err == nil && verify != nil {
		err = verify()
	}
	if err != nil {
		if len(res.Stalled) > 0 {
			return res, fmt.Errorf("%s: %w; stalled channels: %s", spec, err, strings.Join(res.Stalled, ", "))
		}
		return res, fmt.Errorf("%s: %w", spec, err)
	}
	return res, nil
}

// TimelineHook taps every message — and, under a fault plan, every injected
// fault, in the distinct fault-series ramp — into a time-bucketed timeline.
func TimelineHook(tl *trace.Timeline) Hook {
	return func(sys *core.System, in *faults.Injector) {
		sys.Net.SetTap(func(at time.Duration, m netsim.Msg, inter bool) {
			scope := "intra"
			if inter {
				scope = "inter"
			}
			tl.Add(at, scope+"/"+m.Kind.String(), 1)
		})
		if in != nil {
			in.OnEvent(func(ev faults.Event) {
				tl.Add(ev.At, trace.FaultSeriesPrefix+ev.Kind.String(), 1)
			})
		}
	}
}
