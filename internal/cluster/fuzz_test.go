package cluster_test

import (
	"os"
	"path/filepath"
	"testing"

	"albatross/internal/cluster"
	"albatross/internal/netsim"
	"albatross/internal/sim"
)

// checkRoutes is the routing property every accepted platform must have: the
// network builds, one message per ordered cluster pair is delivered, and the
// route Next walks from every cluster to every other reaches it within
// Clusters hops over links that carried that traffic.
func checkRoutes(t *testing.T, topo cluster.Topology, par cluster.Params) {
	t.Helper()
	g, err := topo.Graph(par)
	if err != nil {
		t.Fatalf("%v: %v", topo, err)
	}
	e := sim.NewEngine()
	n := netsim.New(e, topo, par)
	delivered := 0
	for c := 0; c < topo.Clusters; c++ {
		n.SetHandler(topo.Node(c, 0), func(netsim.Msg) { delivered++ })
	}
	for u := 0; u < topo.Clusters; u++ {
		for d := 0; d < topo.Clusters; d++ {
			if u != d {
				n.Send(netsim.Msg{From: topo.Node(u, 0), To: topo.Node(d, 0), Kind: netsim.KindData, Size: 64})
			}
		}
	}
	if err := e.Run(); err != nil {
		t.Fatalf("%v: %v", topo, err)
	}
	if want := topo.Clusters * (topo.Clusters - 1); delivered != want {
		t.Fatalf("%v: delivered %d of %d messages", topo, delivered, want)
	}
	carried := map[[2]int]bool{}
	for _, r := range n.PipeReports() {
		carried[[2]int{r.From, r.To}] = true
	}
	for u := 0; u < topo.Clusters; u++ {
		for d := 0; d < topo.Clusters; d++ {
			for cur, hops := u, 0; cur != d; hops++ {
				if hops == topo.Clusters {
					t.Fatalf("%v: route %d->%d still at %d after %d hops", topo, u, d, cur, hops)
				}
				next := g.Next(cur, d)
				if !carried[[2]int{cur, next}] {
					t.Fatalf("%v: route %d->%d takes %d->%d, which carried nothing", topo, u, d, cur, next)
				}
				cur = next
			}
		}
	}
}

// TestMeshShorthandRoutes runs the routing property over the derived mesh
// graph of every DAS(c, n) the experiments could build.
func TestMeshShorthandRoutes(t *testing.T) {
	for c := 1; c <= 8; c++ {
		for _, npc := range []int{1, 3} {
			checkRoutes(t, cluster.DAS(c, npc), cluster.DASParams())
		}
	}
}

// FuzzParseTopology: a config ParseTopology accepts builds a network that
// routes every cluster pair; one it rejects is an error, never a panic.
func FuzzParseTopology(f *testing.F) {
	examples, err := filepath.Glob("../../examples/topologies/*.json")
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example topologies: %v", err)
	}
	for _, path := range examples {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		topo, err := cluster.ParseTopology(data)
		if err != nil {
			return
		}
		// Keep an iteration small: the all-pairs check is quadratic in
		// clusters, and the network holds a pipe per link, direction and stream.
		pipes := 0
		for _, l := range topo.WAN.Links {
			pipes += 2 * max(1, topo.WAN.Classes[l.Class].Streams)
		}
		if topo.Clusters > 64 || topo.Total() > 1<<12 || pipes > 1<<14 {
			return
		}
		checkRoutes(t, topo, cluster.DASParams())
	})
}
