package harness

import (
	"fmt"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/netsim"
)

// TopoReport runs each listed application (both variants) on an arbitrary
// topology — the uniform DAS mesh, heterogeneous cluster sizes, tiered WAN
// graphs from the topology DSL, or both — and reports elapsed time, WAN
// traffic, the per-link-class statistics the sparse network keeps
// (transmissions, queueing-delay distribution with a streaming P99, and link
// busy time per declared capacity class), the intercluster traffic by kind
// (the paper's Tables 4 and 5 for any shape), and the load of every directed
// WAN link.
func TopoReport(s *Session, topo cluster.Topology, apps []AppSpec) (*Report, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	var specs []RunSpec
	for _, app := range apps {
		specs = append(specs, s.Spec(app, topo, false), s.Spec(app, topo, true))
	}
	res, err := s.All(specs...)
	if err != nil {
		return nil, err
	}
	summary := &Table{
		ID:      "topo-apps",
		Title:   "application runs",
		Headers: []string{"app", "variant", "elapsed", "WAN msgs", "WAN kB", "frames", "packing"},
	}
	classes := &Table{
		ID:    "topo-classes",
		Title: "per-link-class WAN statistics",
		Headers: []string{"app", "variant", "class", "xmits", "msgs", "kB",
			"busy", "mean-wait", "p99-wait", "max-wait"},
	}
	traffic := &Table{
		ID:      "topo-traffic",
		Title:   "intercluster traffic by kind",
		Headers: []string{"app", "variant", "# p2p", "p2p kB", "# bcast", "bcast kB", "# control"},
	}
	links := &Table{
		ID:    "topo-links",
		Title: "per-directed-WAN-link load",
		Headers: []string{"app", "variant", "link", "msgs", "frames", "packing", "kB",
			"utilization", "max queueing"},
	}
	for i, m := range res {
		name, variant := specs[i].App.Name, variantName(specs[i].Optimized)
		inter := m.Net.TotalInter()
		summary.Rows = append(summary.Rows, []string{
			name, variant,
			fmt.Sprintf("%.3fs", m.Seconds()),
			fmt.Sprintf("%d", inter.Msgs),
			fmt.Sprintf("%.1f", inter.KBytes()),
			fmt.Sprintf("%d", m.Net.WANFrames().Msgs),
			fmt.Sprintf("%.1f", m.Net.PackingRatio()),
		})
		for _, cr := range m.Classes {
			classes.Rows = append(classes.Rows, []string{
				name, variant, cr.Class,
				fmt.Sprintf("%d", cr.Xmits),
				fmt.Sprintf("%d", cr.Msgs),
				fmt.Sprintf("%.1f", float64(cr.Bytes)/1024),
				roundDur(cr.Busy),
				roundDur(cr.MeanWait),
				roundDur(cr.P99Wait),
				roundDur(cr.MaxWait),
			})
		}
		rpc, data, bc := m.Net.InterRPC(), m.Net.InterData(), m.Net.InterBcast()
		traffic.Rows = append(traffic.Rows, []string{
			name, variant,
			fmt.Sprint(rpc.Msgs + data.Msgs),
			fmt.Sprintf("%.0f", rpc.KBytes()+data.KBytes()),
			fmt.Sprint(bc.Msgs),
			fmt.Sprintf("%.0f", bc.KBytes()),
			fmt.Sprint(m.Net.Inter(netsim.KindControl).Msgs),
		})
		for _, r := range m.Links {
			links.Rows = append(links.Rows, []string{
				name, variant,
				fmt.Sprintf("c%d->c%d.%d", r.From, r.To, r.Stream),
				fmt.Sprint(r.Msgs),
				fmt.Sprint(r.Frames),
				fmt.Sprintf("%.1f", r.Packing()),
				fmt.Sprintf("%.0f", float64(r.Bytes)/1024),
				fmt.Sprintf("%.0f%%", 100*r.Utilization(m.Elapsed)),
				roundDur(r.MaxQueueing),
			})
		}
	}
	rep := &Report{
		ID:     "topo",
		Title:  fmt.Sprintf("applications on %s (%d clusters, %d compute nodes)", topo, topo.Clusters, topo.Compute()),
		Tables: []*Table{summary, classes, traffic, links},
		Notes: []string{
			"xmits are per-hop wire transmissions on links of that class; multi-hop routes count every hop",
			"waits are per-transmission queueing delays behind earlier traffic on the same physical link",
		},
	}
	return rep, nil
}

// roundDur renders a duration at microsecond precision so reports stay
// readable (and golden-stable) regardless of sub-microsecond arithmetic.
func roundDur(d time.Duration) string { return d.Round(time.Microsecond).String() }
