// Command dastraffic reports the wide-area traffic of any application on
// any platform shape, generalizing the paper's Tables 4 and 5.
//
//	dastraffic                       # all apps, 4x16, original + optimized
//	dastraffic -app RA -clusters 2 -nodes 8
//	dastraffic -app RA -coalesce 32768 -coalesce-window 500us -streams 4
//	                                 # gateway transport on: adds the framed
//	                                 # wire-level counts and packing column
//	dastraffic -app RA -topo examples/topologies/tiered64.json
//	                                 # ... on a declarative tiered topology
//	                                 # (-links adds per-class WAN statistics)
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/harness"
	"albatross/internal/netsim"
)

func main() {
	appFlag := flag.String("app", "all", "application name (Water, TSP, ASP, ATPG, IDA*, RA, ACP, SOR) or 'all'")
	clustersFlag := flag.Int("clusters", 4, "number of clusters")
	nodesFlag := flag.Int("nodes", 16, "compute nodes per cluster")
	topoFlag := flag.String("topo", "", "run on a declarative topology configuration (JSON file) instead of -clusters x -nodes")
	linksFlag := flag.Bool("links", false, "also print per-WAN-link load reports (and per-class statistics on -topo platforms)")
	coalesceFlag := flag.Int("coalesce", 0, "gateway transport: max coalesced WAN frame size in bytes (0 = no size bound)")
	windowFlag := flag.Duration("coalesce-window", 0, "gateway transport: max virtual time a WAN message waits for frame companions (0 = no window)")
	streamsFlag := flag.Int("streams", 0, "gateway transport: parallel WAN streams per directed cluster pair (0/1 = single pipe)")
	flag.Parse()

	tr := harness.Transport{
		MaxFrameBytes:  *coalesceFlag,
		CoalesceWindow: *windowFlag,
		WANStreams:     *streamsFlag,
	}

	var apps []harness.AppSpec
	if *appFlag == "all" {
		apps = harness.Apps
	} else {
		a, err := harness.AppByName(*appFlag)
		if err != nil {
			log.Fatal(err)
		}
		apps = []harness.AppSpec{a}
	}

	topo, platform, err := resolveTopology(*topoFlag, *clustersFlag, *nodesFlag)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Intercluster traffic on %s\n", platform)
	if tr.Enabled() {
		fmt.Printf("gateway transport: frames up to %dB, window %v, %d stream(s)\n",
			tr.MaxFrameBytes, tr.CoalesceWindow, tr.WANStreams)
	}
	fmt.Println()
	fmt.Printf("%-8s %-10s %10s %12s %10s %12s %12s", "app", "variant", "# p2p", "p2p kbyte", "# bcast", "bcast kbyte", "# control")
	if tr.Enabled() {
		fmt.Printf(" %10s %8s", "# frames", "packing")
	}
	fmt.Printf(" %12s\n", "time (s)")
	for _, app := range apps {
		for _, optimized := range []bool{false, true} {
			res, err := harness.Exec(harness.RunSpec{App: app, Topo: topo, Optimized: optimized,
				Params: harness.Params, Transport: tr})
			if err != nil {
				log.Fatal(err)
			}
			m := res.Metrics
			variant := "original"
			if optimized {
				variant = "optimized"
			}
			rpc := m.Net.InterRPC()
			data := m.Net.InterData()
			bc := m.Net.InterBcast()
			ctl := m.Net.Inter(netsim.KindControl)
			fmt.Printf("%-8s %-10s %10d %12.0f %10d %12.0f %12d",
				app.Name, variant,
				rpc.Msgs+data.Msgs, rpc.KBytes()+data.KBytes(),
				bc.Msgs, bc.KBytes(), ctl.Msgs)
			if tr.Enabled() {
				fmt.Printf(" %10d %8.1f", m.Net.WANFrames().Msgs, m.Net.PackingRatio())
			}
			fmt.Printf(" %12.3f\n", m.Seconds())
			if *linksFlag {
				printLinks(app.Name, variant, m)
				printClasses(m)
			}
		}
	}
}

// resolveTopology picks the platform: the uniform DAS mesh from -clusters and
// -nodes, or a declarative configuration loaded from -topo.
func resolveTopology(path string, clusters, nodes int) (cluster.Topology, string, error) {
	if path == "" {
		return cluster.DAS(clusters, nodes), fmt.Sprintf("%dx%d (DAS parameters)", clusters, nodes), nil
	}
	topo, err := cluster.LoadTopology(path)
	if err != nil {
		return cluster.Topology{}, "", err
	}
	return topo, fmt.Sprintf("%s (from %s)", topo, path), nil
}

// printClasses shows the per-link-class statistics of the last run: per-hop
// transmissions, volume, busy time and the queueing-delay distribution on
// links of each capacity class (the one "wan" class on DAS mesh
// platforms).
func printClasses(m core.Metrics) {
	if len(m.Classes) == 0 {
		return
	}
	fmt.Printf("    %-10s %8s %8s %12s %12s %12s %12s %12s\n",
		"class", "xmits", "msgs", "kbyte", "busy", "mean-wait", "p99-wait", "max-wait")
	for _, cr := range m.Classes {
		fmt.Printf("    %-10s %8d %8d %12.0f %12v %12v %12v %12v\n",
			cr.Class, cr.Xmits, cr.Msgs, float64(cr.Bytes)/1024,
			cr.Busy.Round(time.Microsecond), cr.MeanWait.Round(time.Microsecond),
			cr.P99Wait.Round(time.Microsecond), cr.MaxWait.Round(time.Microsecond))
	}
}

// printLinks shows the per-directed-WAN-link load of the last run, exposing
// saturation (utilization near 1) and queueing hot spots. With the transport
// layer on, each stream of a striped pair reports separately, with its frame
// count and packing efficiency.
func printLinks(app, variant string, m core.Metrics) {
	reps := m.Links
	if len(reps) == 0 {
		fmt.Printf("    (no WAN traffic)\n")
		return
	}
	framed := false
	for _, r := range reps {
		if r.Frames > 0 {
			framed = true
			break
		}
	}
	fmt.Printf("    %-12s %8s", "link", "msgs")
	if framed {
		fmt.Printf(" %8s %8s", "frames", "packing")
	}
	fmt.Printf(" %12s %12s %12s\n", "kbyte", "utilization", "max queueing")
	for _, r := range reps {
		fmt.Printf("    c%d -> c%d", r.From, r.To)
		if framed {
			fmt.Printf(".%-2d", r.Stream)
		} else {
			fmt.Printf("%-3s", "")
		}
		fmt.Printf("  %8d", r.Msgs)
		if framed {
			fmt.Printf(" %8d %8.1f", r.Frames, r.Packing())
		}
		fmt.Printf(" %12.0f %11.0f%% %12v\n",
			float64(r.Bytes)/1024,
			100*r.Utilization(m.Elapsed), r.MaxQueueing.Round(time.Microsecond))
	}
}
