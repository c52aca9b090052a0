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
	var specs []RunSpec // per operation: flat, wide-area
	for _, o := range ops {
		for _, strat := range []coll.Strategy{coll.Flat, coll.WideArea} {
			app := AppSpec{
				Name: fmt.Sprintf("coll %s %dB %v", o.name, o.size, strat),
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
			specs = append(specs, s.Spec(app, cluster.DAS(4, 15), false))
		}
	}
	res, err := s.All(specs...)
	if err != nil {
		return nil, err
	}
	for i, o := range ops {
		flat, wide := res[2*i].Elapsed/reps, res[2*i+1].Elapsed/reps
		t.Rows = append(t.Rows, []string{
			o.name,
			fmt.Sprintf("%d B", o.size),
			flat.Round(time.Microsecond).String(),
			wide.Round(time.Microsecond).String(),
			fmt.Sprintf("%.2fx", float64(flat)/float64(wide))})
	}
	return &Report{ID: "coll", Title: t.Title, Tables: []*Table{t},
		Notes: []string{
			"latency includes one closing barrier per repetition; the wide-area strategy crosses each WAN link once per operation",
			"alltoall is bandwidth-bound (all data must cross regardless), so bundling through cluster roots roughly breaks even — combining pays off when per-message overhead dominates, as in RA",
		}}, nil
}
