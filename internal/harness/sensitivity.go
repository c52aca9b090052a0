package harness

import (
	"fmt"
	"time"

	"albatross/internal/apps/asp"
	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/faults"
	"albatross/internal/orca"
)

// The sensitivity experiments extend the paper's evaluation along the axis
// its conclusion names as future work: "Performance was found to be quite
// sensitive to problem size, number of processors, number of clusters, and
// latency and bandwidth... further sensitivity analysis is part of our
// future work." They also reproduce the paper's one explicit slow-network
// data point: ATPG's optimization only matters on a slower WAN
// (Section 4.4: "10 ms latency, 2 Mbit/s bandwidth").

// wanScenario is one point of the network-quality sweep.
type wanScenario struct {
	name string
	par  cluster.Params // only its link latencies and bandwidths are read
}

func wanScenarios() []wanScenario {
	das := cluster.DASParams()
	scale := func(latF, bwF float64) cluster.Params {
		p := das
		p.WANLatency = time.Duration(float64(p.WANLatency) * latF)
		p.WANBandwidth = p.WANBandwidth * bwF
		return p
	}
	return []wanScenario{
		{"LAN-only (WAN=LAN)", func() cluster.Params {
			p := das
			p.WANLatency = p.LANLatency
			p.WANBandwidth = p.LANBandwidth
			p.FELatency = p.LANLatency
			p.FEBandwidth = p.LANBandwidth
			return p
		}()},
		{"DAS ATM (2.7ms, 4.5Mb)", das},
		{"Internet Sunday (8ms, 1.8Mb)", cluster.InternetParams()},
		{"slow WAN (10ms, 2Mb)", cluster.SlowWANParams()},
		{"4x latency", scale(4, 1)},
		{"1/4 bandwidth", scale(1, 0.25)},
	}
}

// wanSweep fills t with one row per scenario: the application's original and
// optimized speedups on 4x16 under that scenario's links (the 1-CPU baselines
// do not touch the network, so all scenarios share them). A scenario sets only
// link latencies and bandwidths, so the session's transport still applies.
func wanSweep(s *Session, t *Table, appName string, scenarios []wanScenario) (*Report, error) {
	app, err := AppByName(appName)
	if err != nil {
		return nil, err
	}
	var specs []RunSpec // per scenario: original, optimized
	for _, sc := range scenarios {
		for _, optimized := range []bool{false, true} {
			spec := s.Spec(app, cluster.DAS(4, 16), optimized)
			p, q := &spec.Params, sc.par
			p.LANLatency, p.LANBandwidth = q.LANLatency, q.LANBandwidth
			p.FELatency, p.FEBandwidth = q.FELatency, q.FEBandwidth
			p.WANLatency, p.WANBandwidth = q.WANLatency, q.WANBandwidth
			specs = append(specs, spec)
		}
	}
	sp, _, err := s.Speedups(specs...)
	if err != nil {
		return nil, err
	}
	for i, sc := range scenarios {
		orig, opt := sp[2*i], sp[2*i+1]
		t.Rows = append(t.Rows, []string{sc.name,
			fmt.Sprintf("%.1f", orig), fmt.Sprintf("%.1f", opt), fmt.Sprintf("%.2fx", opt/orig)})
	}
	return &Report{ID: t.ID, Title: t.Title, Tables: []*Table{t}}, nil
}

// SensitivityWAN sweeps one application (original and optimized) across the
// WAN-quality scenarios on the 4x16 platform.
func SensitivityWAN(s *Session, appName string) (*Report, error) {
	return wanSweep(s, &Table{
		ID:      "sens-" + appName,
		Title:   fmt.Sprintf("%s speedup on 4x16 vs wide-area link quality", appName),
		Headers: []string{"scenario", "original", "optimized", "gain"},
	}, appName, wanScenarios())
}

// SensitivityATPG reproduces the paper's Section 4.4 observation: at DAS
// parameters ATPG's optimization changes little, but on the slower network
// the original program degrades significantly and the single-RPC-per-
// cluster reduction recovers it.
func SensitivityATPG(s *Session) (*Report, error) {
	rep, err := wanSweep(s, &Table{
		ID:      "sens-atpg",
		Title:   "ATPG on 4x16: the optimization only matters on slow networks (paper 4.4)",
		Headers: []string{"network", "original", "optimized", "gain"},
	}, "ATPG", []wanScenario{
		{"DAS ATM", cluster.DASParams()},
		{"slow WAN (10ms, 2Mb)", cluster.SlowWANParams()},
	})
	if err != nil {
		return nil, err
	}
	rep.Notes = []string{"paper: at DAS parameters 'speedups were not significantly improved'; on the slower network the original is 'significantly worse'"}
	return rep, nil
}

// SensitivityClusters sweeps the cluster count at fixed total CPUs for all
// applications (original programs) — the "number of clusters" axis.
func SensitivityClusters(s *Session) (*Report, error) {
	t := &Table{
		ID:      "sens-clusters",
		Title:   "Original-program speedup at 48 CPUs vs number of clusters",
		Headers: []string{"program", "1 cluster", "2 clusters", "4 clusters", "6 clusters"},
	}
	var specs []RunSpec
	for _, app := range Apps {
		for _, c := range []int{1, 2, 4, 6} {
			specs = append(specs, s.Spec(app, cluster.DAS(c, 48/c), false))
		}
	}
	sp, _, err := s.Speedups(specs...)
	if err != nil {
		return nil, err
	}
	t.Rows = speedupRows(sp, 4)
	return &Report{ID: "sens-clusters", Title: t.Title, Tables: []*Table{t}}, nil
}

// SensitivitySize sweeps ASP's problem size on the 4x15 platform — the
// paper's Amdahl's-law discussion in Section 3: growing the problem makes
// the grain coarser and shrinks the relative WAN overhead, which is exactly
// why the paper deliberately did *not* grow its inputs.
func SensitivitySize(s *Session) (*Report, error) {
	t := &Table{
		ID:      "sens-size",
		Title:   "ASP on 4x15: problem size vs speedup (grain grows with n)",
		Headers: []string{"matrix size", "original", "optimized"},
	}
	sizes := []int{96, 192, 384}
	var specs []RunSpec // per size: original, optimized
	for _, n := range sizes {
		// ASP with a non-default matrix size, as a one-off application.
		cfg := asp.Default()
		cfg.N = n
		app := AppSpec{
			Name:      fmt.Sprintf("ASP n=%d", n),
			Sequencer: func(opt bool) orca.Sequencer { return asp.Sequencer(opt) },
			Build:     func(sys *core.System, _ bool) func() error { return asp.Build(sys, cfg) },
		}
		specs = append(specs, s.Spec(app, cluster.DAS(4, 15), false), s.Spec(app, cluster.DAS(4, 15), true))
	}
	sp, _, err := s.Speedups(specs...)
	if err != nil {
		return nil, err
	}
	for i, n := range sizes {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), fmt.Sprintf("%.1f", sp[2*i]), fmt.Sprintf("%.1f", sp[2*i+1])})
	}
	return &Report{ID: "sens-size", Title: t.Title, Tables: []*Table{t},
		Notes: []string{"paper §3: 'choosing a bigger problem size can reduce the relative impact of overheads such as communication latencies'"}}, nil
}

// SensitivityCongestion runs Water and SOR under a time-varying WAN — a
// deterministic square-wave congestion pattern (every 100 ms of virtual
// time, a 50 ms burst at 3x latency and quarter bandwidth) and a loaded
// gateway stack — conditions closer to the paper's "ordinary Internet"
// measurement than the dedicated ATM PVCs.
func SensitivityCongestion(s *Session) (*Report, error) {
	t := &Table{
		ID:      "sens-congestion",
		Title:   "Time-varying WAN on 4x16: congestion waves + loaded gateways",
		Headers: []string{"app", "variant", "steady (s)", "congested (s)", "slowdown"},
	}
	congested := func(sys *core.System, _ *faults.Injector) {
		sys.Net.SetWANProfile(func(at time.Duration) (float64, float64) {
			if at%(100*time.Millisecond) < 50*time.Millisecond {
				return 3, 0.25
			}
			return 1, 1
		})
	}
	type variantKey struct {
		app       AppSpec
		optimized bool
	}
	var variants []variantKey
	for _, name := range []string{"Water", "SOR"} {
		app, err := AppByName(name)
		if err != nil {
			return nil, err
		}
		variants = append(variants, variantKey{app, false}, variantKey{app, true})
	}
	secs := make([][2]float64, len(variants))
	var tasks []func() error
	for vi, v := range variants {
		vi, spec := vi, s.Spec(v.app, cluster.DAS(4, 16), v.optimized)
		tasks = append(tasks, func() error {
			m, err := s.Run(spec)
			secs[vi][0] = m.Seconds()
			return err
		}, func() error {
			// The WAN profile is a function value, so it rides in as a
			// hook and the run stays out of the cache.
			spec := spec
			spec.Params.GatewayCost = 40 * time.Microsecond
			m, err := s.Exec(spec, congested)
			secs[vi][1] = m.Seconds()
			return err
		})
	}
	if err := s.do(tasks...); err != nil {
		return nil, err
	}
	for vi, v := range variants {
		t.Rows = append(t.Rows, []string{v.app.Name, variantName(v.optimized),
			fmt.Sprintf("%.3f", secs[vi][0]),
			fmt.Sprintf("%.3f", secs[vi][1]),
			fmt.Sprintf("%.2fx", secs[vi][1]/secs[vi][0])})
	}
	return &Report{ID: "sens-congestion", Title: t.Title, Tables: []*Table{t},
		Notes: []string{"optimized programs touch the WAN less, so congestion waves cost them proportionally less"}}, nil
}
