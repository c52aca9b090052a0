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
// run names its transport explicitly, whatever the session's setting: off for
// the original and hand-optimized programs, tr for the transport-opt column,
// which therefore shares the original program's 1-CPU baseline (the
// transport layer is inert on a single cluster).
func transportTable(s *Session, id string, clusters, perCluster int, tr Transport) (*Report, error) {
	t := &Table{
		ID: id,
		Title: fmt.Sprintf("Runtime transport optimization vs application rewrites (%dx%d, frames %dB/%v/%d streams)",
			clusters, perCluster, tr.MaxFrameBytes, tr.CoalesceWindow, tr.WANStreams),
		Headers: []string{"Application", "orig", "app-opt", "transport-opt", "WAN msgs", "WAN frames", "packing"},
	}
	variant := func(app AppSpec, optimized bool, tr Transport) RunSpec {
		spec := s.Spec(app, cluster.DAS(clusters, perCluster), optimized)
		spec.Transport = tr
		return spec
	}
	var specs []RunSpec
	for _, app := range Apps {
		specs = append(specs, withBaseline(variant(app, false, Transport{}))...)
		specs = append(specs, withBaseline(variant(app, true, Transport{}))...)
		specs = append(specs, variant(app, false, tr))
	}
	s.Prefetch(specs)
	for _, app := range Apps {
		spO, err := s.Speedup(variant(app, false, Transport{}))
		if err != nil {
			return nil, err
		}
		spA, err := s.Speedup(variant(app, true, Transport{}))
		if err != nil {
			return nil, err
		}
		spT, err := s.Speedup(variant(app, false, tr))
		if err != nil {
			return nil, err
		}
		mt, err := s.Run(variant(app, false, tr))
		if err != nil {
			return nil, err
		}
		frames := mt.Net.WANFrames()
		t.Rows = append(t.Rows, []string{
			app.Name,
			fmt.Sprintf("%.1f", spO),
			fmt.Sprintf("%.1f", spA),
			fmt.Sprintf("%.1f", spT),
			fmt.Sprintf("%d", mt.Net.FramedMsgs()),
			fmt.Sprintf("%d", frames.Msgs),
			fmt.Sprintf("%.1f", mt.Net.PackingRatio()),
		})
	}
	return &Report{ID: id, Title: t.Title, Tables: []*Table{t},
		Notes: []string{"transport-opt runs the ORIGINAL programs on the coalescing/striping runtime; packing = WAN msgs per wire frame"}}, nil
}
