package harness

import (
	"fmt"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/coll"
	"albatross/internal/core"
)

// Collectives measures the latency of each collective operation on the
// 4x15 platform under the topology-oblivious and the cluster-aware
// strategy — the generalization of the paper's techniques that later MPI
// libraries (MagPIe, Open MPI) adopted.
func Collectives(s *Session) (*Report, error) {
	t := &Table{
		ID:      "coll",
		Title:   "Collective operations on 4x15: flat binomial vs cluster-aware",
		Headers: []string{"operation", "payload", "flat", "wide-area", "speedup"},
	}
	type op struct {
		name string
		size int
		run  func(c *coll.Comm, w *core.Worker, size int)
	}
	sum := func(acc, v any) any {
		if acc == nil {
			return v
		}
		return acc.(int) + v.(int)
	}
	ops := []op{
		{"broadcast", 1024, func(c *coll.Comm, w *core.Worker, size int) { c.Bcast(w, 0, size, "x") }},
		{"broadcast", 64 * 1024, func(c *coll.Comm, w *core.Worker, size int) { c.Bcast(w, 0, size, "x") }},
		{"reduce", 1024, func(c *coll.Comm, w *core.Worker, size int) { c.Reduce(w, 0, size, 1, sum) }},
		{"allreduce", 1024, func(c *coll.Comm, w *core.Worker, size int) { c.AllReduce(w, size, 1, sum) }},
		{"barrier", 0, func(c *coll.Comm, w *core.Worker, size int) { c.Barrier(w) }},
		{"allgather", 256, func(c *coll.Comm, w *core.Worker, size int) { c.AllGather(w, size, w.Rank()) }},
		{"scatter", 256, func(c *coll.Comm, w *core.Worker, size int) {
			var vals []any
			if w.Rank() == 0 {
				vals = make([]any, w.NProcs())
				for i := range vals {
					vals[i] = i
				}
			}
			c.Scatter(w, 0, size, vals)
		}},
		{"alltoall", 128, func(c *coll.Comm, w *core.Worker, size int) {
			vals := make([]any, w.NProcs())
			for i := range vals {
				vals[i] = w.Rank()
			}
			c.AllToAll(w, size, vals)
		}},
	}
	const reps = 5
	lats := make([][2]time.Duration, len(ops))
	var tasks []func() error
	for oi, o := range ops {
		for si, strat := range []coll.Strategy{coll.Flat, coll.WideArea} {
			oi, si, o, strat := oi, si, o, strat
			tasks = append(tasks, func() error {
				app := AppSpec{
					Name: fmt.Sprintf("coll %s %v", o.name, strat),
					Build: func(sys *core.System, _ bool) func() error {
						comm := coll.New(sys, "bench", strat)
						sys.SpawnWorkers("w", func(w *core.Worker) {
							for i := 0; i < reps; i++ {
								o.run(comm, w, o.size)
								comm.Barrier(w)
							}
						})
						return nil
					},
				}
				m, err := s.Exec(s.Spec(app, cluster.DAS(4, 15), false))
				if err != nil {
					return err
				}
				lats[oi][si] = m.Elapsed / reps
				return nil
			})
		}
	}
	if err := s.do(tasks...); err != nil {
		return nil, err
	}
	for oi, o := range ops {
		lat := lats[oi]
		t.Rows = append(t.Rows, []string{
			o.name,
			fmt.Sprintf("%d B", o.size),
			lat[0].Round(time.Microsecond).String(),
			lat[1].Round(time.Microsecond).String(),
			fmt.Sprintf("%.2fx", float64(lat[0])/float64(lat[1]))})
	}
	return &Report{ID: "coll", Title: t.Title, Tables: []*Table{t},
		Notes: []string{
			"latency includes one closing barrier per repetition; the wide-area strategy crosses each WAN link once per operation",
			"alltoall is bandwidth-bound (all data must cross regardless), so bundling through cluster roots roughly breaks even — combining pays off when per-message overhead dominates, as in RA",
		}}, nil
}
