package harness

import (
	"fmt"

	"albatross/internal/cluster"
)

// TransportReport measures how much of the paper's application-optimization
// gap the transparent gateway transport layer (frame coalescing + multipath
// striping) closes with no application changes: per application, the
// wide-area speedup of the original program, of the hand-optimized program,
// and of the original program on the transport-optimized runtime, plus the
// transport run's wire-level packing statistics.
func TransportReport(s *Session) (*Report, error) {
	return transportTable(s, "transport", 4, 16, DefaultTransport)
}

// transportTable builds the three-variant table on one platform shape. Every
// run names its parameters explicitly, whatever the session's setting: Params
// for the original and hand-optimized programs, tr for the transport-opt
// column, which therefore shares the original program's 1-CPU baseline (the
// transport layer is inert on a single cluster).
func transportTable(s *Session, id string, clusters, perCluster int, tr cluster.Params) (*Report, error) {
	t := &Table{
		ID: id,
		Title: fmt.Sprintf("Runtime transport optimization vs application rewrites (%dx%d, frames %dB/%v/%d streams)",
			clusters, perCluster, tr.MaxFrameBytes, tr.CoalesceWindow, tr.WANStreams),
		Headers: []string{"Application", "orig", "app-opt", "transport-opt", "WAN msgs", "WAN frames", "packing"},
	}
	// Per application: orig, app-opt, transport-opt.
	var specs []RunSpec
	for _, app := range Apps {
		for _, v := range []struct {
			optimized bool
			params    cluster.Params
		}{{false, Params}, {true, Params}, {false, tr}} {
			specs = append(specs, RunSpec{App: app, Topo: cluster.DAS(clusters, perCluster), Optimized: v.optimized, Params: v.params})
		}
	}
	sp, res, err := s.Speedups(specs...)
	if err != nil {
		return nil, err
	}
	for i, app := range Apps {
		mt := res[3*i+2].Net
		t.Rows = append(t.Rows, []string{
			app.Name,
			fmt.Sprintf("%.1f", sp[3*i]),
			fmt.Sprintf("%.1f", sp[3*i+1]),
			fmt.Sprintf("%.1f", sp[3*i+2]),
			fmt.Sprintf("%d", mt.FramedMsgs()),
			fmt.Sprintf("%d", mt.WANFrames().Msgs),
			fmt.Sprintf("%.1f", mt.PackingRatio()),
		})
	}
	return &Report{ID: id, Title: t.Title, Tables: []*Table{t},
		Notes: []string{"transport-opt runs the ORIGINAL programs on the coalescing/striping runtime; packing = WAN msgs per wire frame"}}, nil
}
