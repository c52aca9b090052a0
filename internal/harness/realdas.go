package harness

import "albatross/internal/cluster"

// RealDAS runs every application on the full, irregular DAS machine of the
// paper's Figure 17 — VU Amsterdam's 64 nodes plus three 24-node sites, 136
// compute nodes in total. The paper could not measure this configuration
// (only two sites were operational and the experimentation system used
// equal splits); the simulator can. A uniform 4x34 machine with the same
// node count is shown next to it: the difference isolates the effect of the
// uneven cluster sizes.
func RealDAS(s *Session) (*Report, error) {
	t := &Table{
		ID:      "real-das",
		Title:   "Full DAS (64+24+24+24 nodes) vs uniform 4x34, speedups at 136 CPUs",
		Headers: []string{"App", "real orig", "real opt", "uniform orig", "uniform opt"},
	}
	var specs []RunSpec // per application: real orig, real opt, uniform orig, uniform opt
	for _, app := range Apps {
		for _, topo := range []cluster.Topology{cluster.DASReal(), cluster.DAS(4, 34)} {
			specs = append(specs, s.Spec(app, topo, false), s.Spec(app, topo, true))
		}
	}
	sp, _, err := s.Speedups(specs...)
	if err != nil {
		return nil, err
	}
	t.Rows = speedupRows(sp, 4)
	return &Report{ID: "real-das", Title: t.Title, Tables: []*Table{t},
		Notes: []string{"the paper's testbed could not run this shape; the calibrated simulator can"}}, nil
}
