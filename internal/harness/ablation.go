package harness

import (
	"fmt"
	"time"

	"albatross/internal/apps/ida"
	"albatross/internal/apps/ra"
	"albatross/internal/apps/sor"
	"albatross/internal/apps/tsp"
	"albatross/internal/apps/water"
	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/orca"
)

// The ablation experiments decompose each composite optimization into its
// parts, quantifying what each individual technique of the paper's Table 3
// contributes. They run on the 4x15 platform of Figure 15.

// ablate runs one ablation variant — a one-off application whose Build
// ignores the optimized flag — on the 4x15 platform. It is uncached: several
// variants report through variables their Build captures.
func (s *Session) ablate(name string, seq orca.Sequencer, build func(sys *core.System) func() error) (Result, error) {
	app := AppSpec{
		Name:  name,
		Build: func(sys *core.System, _ bool) func() error { return build(sys) },
	}
	if seq != nil {
		app.Sequencer = func(bool) orca.Sequencer { return seq }
	}
	return s.Exec(s.Spec(app, cluster.DAS(4, 15), false))
}

// rows computes a table's n rows through the worker pool, one task per row,
// and returns them in index order.
func (s *Session) rows(n int, row func(i int) ([]string, error)) ([][]string, error) {
	rows := make([][]string, n)
	tasks := make([]func() error, n)
	for i := range tasks {
		tasks[i] = func() (err error) {
			rows[i], err = row(i)
			return err
		}
	}
	return rows, s.do(tasks...)
}

// AblationWater separates cluster caching (reads) from cluster reduction
// (write-backs) in the Water optimization.
func AblationWater(s *Session) (*Report, error) {
	cfg := water.Default()
	t := &Table{
		ID:      "abl-water",
		Title:   "Water on 4x15: contribution of each optimization",
		Headers: []string{"variant", "time (s)", "inter msgs", "inter kbyte"},
	}
	variants := []struct {
		name string
		opts water.Options
	}{
		{"original (direct push)", water.Options{}},
		{"cache only", water.Options{Cache: true}},
		{"reduce only", water.Options{Reduce: true}},
		{"cache + reduce (paper)", water.Options{Cache: true, Reduce: true}},
	}
	rows, err := s.rows(len(variants), func(i int) ([]string, error) {
		v := variants[i]
		m, err := s.ablate("abl-water "+v.name, nil, func(sys *core.System) func() error {
			return water.BuildVariant(sys, cfg, v.opts)
		})
		if err != nil {
			return nil, err
		}
		inter := m.Net.TotalInter()
		return []string{v.name,
			fmt.Sprintf("%.3f", m.Seconds()),
			fmt.Sprintf("%d", inter.Msgs),
			fmt.Sprintf("%.0f", inter.KBytes())}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return &Report{ID: "abl-water", Title: t.Title, Tables: []*Table{t}}, nil
}

// AblationSOR sweeps the chaotic-relaxation skip factor: the tradeoff
// between intercluster communication and convergence speed (Section 4.8).
func AblationSOR(s *Session) (*Report, error) {
	cfg := sor.Default()
	t := &Table{
		ID:      "abl-sor",
		Title:   "SOR on 4x15: exchange skipping vs convergence",
		Headers: []string{"variant", "iterations", "time (s)", "inter msgs"},
	}
	variants := []struct {
		name      string
		optimized bool
		skipMod   int
	}{
		{"lock-step (original)", false, 3},
	}
	for _, sm := range []int{1, 2, 3, 6} {
		variants = append(variants, struct {
			name      string
			optimized bool
			skipMod   int
		}{fmt.Sprintf("chaotic, exchange every %d", sm), true, sm})
	}
	rows, err := s.rows(len(variants), func(i int) ([]string, error) {
		v := variants[i]
		c := cfg
		c.SkipMod = v.skipMod
		var iters *int
		m, err := s.ablate("abl-sor "+v.name, nil, func(sys *core.System) (verify func() error) {
			verify, iters = sor.BuildWithStats(sys, c, v.optimized)
			return verify
		})
		if err != nil {
			return nil, err
		}
		return []string{v.name,
			fmt.Sprintf("%d", *iters),
			fmt.Sprintf("%.3f", m.Seconds()),
			fmt.Sprintf("%d", m.Net.TotalInter().Msgs)}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return &Report{ID: "abl-sor", Title: t.Title, Tables: []*Table{t},
		Notes: []string{"skipping more exchanges cuts WAN traffic but costs iterations; the paper picked 2 of 3 skipped"}}, nil
}

// AblationRA sweeps the two combining levels of RA: the sender-side batch
// factor and cluster-level combining.
func AblationRA(s *Session) (*Report, error) {
	t := &Table{
		ID:      "abl-ra",
		Title:   "RA on 4x15: node-level batching x cluster-level combining",
		Headers: []string{"node batch", "cluster combining", "time (s)", "inter msgs", "inter kbyte"},
	}
	type combo struct {
		batch int
		comb  bool
	}
	var combos []combo
	for _, batch := range []int{1, 4, 16, 64} {
		for _, comb := range []bool{false, true} {
			combos = append(combos, combo{batch, comb})
		}
	}
	rows, err := s.rows(len(combos), func(i int) ([]string, error) {
		c := combos[i]
		cfg := ra.Default()
		cfg.NodeBatch = c.batch
		m, err := s.ablate(fmt.Sprintf("abl-ra batch=%d comb=%v", c.batch, c.comb), nil,
			func(sys *core.System) func() error { return ra.Build(sys, cfg, c.comb) })
		if err != nil {
			return nil, err
		}
		inter := m.Net.TotalInter()
		return []string{
			fmt.Sprintf("%d", c.batch),
			onOff(c.comb),
			fmt.Sprintf("%.3f", m.Seconds()),
			fmt.Sprintf("%d", inter.Msgs),
			fmt.Sprintf("%.0f", inter.KBytes())}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return &Report{ID: "abl-ra", Title: t.Title, Tables: []*Table{t}}, nil
}

// AblationIDA separates the two stealing refinements.
func AblationIDA(s *Session) (*Report, error) {
	cfg := ida.Default()
	t := &Table{
		ID:      "abl-ida",
		Title:   "IDA* on 4x15: stealing policy refinements",
		Headers: []string{"policy", "time (s)", "inter RPCs"},
	}
	variants := []struct {
		name string
		pol  ida.Policy
	}{
		{"original (power-of-two order)", ida.Policy{}},
		{"local cluster first", ida.Policy{LocalFirst: true}},
		{"remember empty", ida.Policy{RememberIdle: true}},
		{"both (paper)", ida.Policy{LocalFirst: true, RememberIdle: true}},
	}
	rows, err := s.rows(len(variants), func(i int) ([]string, error) {
		v := variants[i]
		m, err := s.ablate("abl-ida "+v.name, nil, func(sys *core.System) func() error {
			return ida.BuildPolicy(sys, cfg, v.pol)
		})
		if err != nil {
			return nil, err
		}
		return []string{v.name,
			fmt.Sprintf("%.3f", m.Seconds()),
			fmt.Sprintf("%d", m.Net.InterRPC().Msgs)}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return &Report{ID: "abl-ida", Title: t.Title, Tables: []*Table{t},
		Notes: []string{"paper: intercluster steal requests roughly halve while speedup hardly changes"}}, nil
}

// AblationSequencer compares the three ordering protocols on an ASP-like
// broadcast-burst workload (one sender at a time, bursts of row updates).
func AblationSequencer(s *Session) (*Report, error) {
	t := &Table{
		ID:      "abl-seq",
		Title:   "Sequencer protocols on 4x15, ASP-like broadcast bursts",
		Headers: []string{"sequencer", "time (s)", "per bcast", "inter msgs"},
	}
	const bursts, burstLen, rowBytes = 8, 40, 1024
	variants := []struct {
		name string
		mk   func() orca.Sequencer
	}{
		{"central", func() orca.Sequencer { return orca.NewCentralSequencer(0) }},
		{"rotating (paper default)", func() orca.Sequencer { return orca.NewRotatingSequencer() }},
		{"migrating (ASP opt)", func() orca.Sequencer { return orca.NewMigratingSequencer() }},
	}
	rows, err := s.rows(len(variants), func(i int) ([]string, error) {
		v := variants[i]
		m, err := s.ablate("abl-seq "+v.name, v.mk(), func(sys *core.System) func() error {
			obj := sys.RTS.NewReplicated("rows", func(cluster.NodeID) any { return new(int) })
			sys.SpawnWorkers("sender", func(w *core.Worker) {
				for burst := 0; burst < bursts; burst++ {
					// Spread the senders over the whole machine (and thus over
					// all clusters), like ASP's row ownership.
					if burst*w.NProcs()/bursts != w.Rank() {
						continue
					}
					for *(obj.Replica(w.Node).(*int)) < burst*burstLen {
						w.P.Sleep(100 * time.Microsecond)
					}
					for i := 0; i < burstLen; i++ {
						w.Invoke(obj, orca.Op{Name: "row", ArgBytes: rowBytes,
							Apply: func(s any) any { *(s.(*int))++; return nil }})
					}
				}
			})
			return func() error {
				for i := 0; i < sys.Topo.Compute(); i++ {
					if got := *(obj.Replica(cluster.NodeID(i)).(*int)); got != bursts*burstLen {
						return fmt.Errorf("replica %d saw %d updates", i, got)
					}
				}
				return nil
			}
		})
		if err != nil {
			return nil, err
		}
		per := m.Elapsed / (bursts * burstLen)
		return []string{v.name,
			fmt.Sprintf("%.3f", m.Seconds()),
			per.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", m.Net.TotalInter().Msgs)}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return &Report{ID: "abl-seq", Title: t.Title, Tables: []*Table{t}}, nil
}

// AblationTSP sweeps the job-generation depth: the grain-size tradeoff the
// paper discusses ("Too coarse a grain causes load imbalance"; too fine a
// grain raises queue traffic).
func AblationTSP(s *Session) (*Report, error) {
	t := &Table{
		ID:      "abl-tsp",
		Title:   "TSP on 4x15: job grain (generation depth) x queue scheme",
		Headers: []string{"depth", "jobs", "central time (s)", "static time (s)"},
	}
	depths := []int{3, 4, 5}
	times := make([][2]float64, len(depths))
	var tasks []func() error
	for di, depth := range depths {
		for vi, optimized := range []bool{false, true} {
			di, vi, depth, optimized := di, vi, depth, optimized
			tasks = append(tasks, func() error {
				cfg := tsp.Default()
				cfg.JobDepth = depth
				m, err := s.ablate(fmt.Sprintf("abl-tsp depth=%d opt=%v", depth, optimized), nil,
					func(sys *core.System) func() error { return tsp.Build(sys, cfg, optimized) })
				if err != nil {
					return err
				}
				times[di][vi] = m.Seconds()
				return nil
			})
		}
	}
	if err := s.do(tasks...); err != nil {
		return nil, err
	}
	for di, depth := range depths {
		cfg := tsp.Default()
		cfg.JobDepth = depth
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", depth),
			fmt.Sprintf("%d", tsp.CountJobs(cfg)),
			fmt.Sprintf("%.3f", times[di][0]),
			fmt.Sprintf("%.3f", times[di][1])})
	}
	return &Report{ID: "abl-tsp", Title: t.Title, Tables: []*Table{t}}, nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
