package netsim

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/sim"
)

// constructSizes are the platform scales the scaling benchmark sweeps.
var constructSizes = []int{4, 64, 256}

// constructTopo builds a tiered platform with the given total cluster count:
// 4 ring roots, then fan-outs of 3 and 4 (4·(1+3)+… per tier), two compute
// nodes per cluster.
func constructTopo(tb testing.TB, clusters int) cluster.Topology {
	fanouts := map[int][]int{4: {}, 64: {3, 4}, 256: {3, 4, 4}}[clusters]
	if fanouts == nil {
		tb.Fatalf("no tier chain for %d clusters", clusters)
	}
	b := cluster.NewBuilder()
	trunk := b.Class("trunk", 20*time.Millisecond, cluster.Mbit(155), 2)
	leaf := b.Class("leaf", 5*time.Millisecond, cluster.Mbit(45), 0)
	tier := b.Roots(4, cluster.Ring, trunk, 2)
	for _, fanout := range fanouts {
		tier = b.Tier(tier, fanout, leaf, 2)
	}
	topo, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	if topo.Clusters != clusters {
		tb.Fatalf("tiered platform has %d clusters, want %d", topo.Clusters, clusters)
	}
	return topo
}

// BenchmarkNetworkConstruct measures building the network for a tiered
// platform: near-linear in physical links, however many clusters.
func BenchmarkNetworkConstruct(b *testing.B) {
	par := cluster.DASParams()
	for _, c := range constructSizes {
		topo := constructTopo(b, c)
		b.Run(fmt.Sprintf("c=%d", c), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := sim.NewEngine()
				n := New(e, topo, par)
				runtime.KeepAlive(n)
			}
		})
	}
}
