package cluster

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestTopologyBasics(t *testing.T) {
	topo := Topology{Clusters: 4, NodesPerCluster: 15}
	if topo.Compute() != 60 {
		t.Fatalf("compute %d", topo.Compute())
	}
	if topo.Total() != 64 {
		t.Fatalf("total %d", topo.Total())
	}
	if topo.Node(2, 3) != NodeID(33) {
		t.Fatalf("node(2,3)=%d", topo.Node(2, 3))
	}
	if topo.ClusterOf(33) != 2 {
		t.Fatalf("clusterOf(33)=%d", topo.ClusterOf(33))
	}
	gw := topo.Gateway(1)
	if gw != NodeID(61) || !topo.IsGateway(gw) || topo.ClusterOf(gw) != 1 {
		t.Fatalf("gateway %d cluster %d", gw, topo.ClusterOf(gw))
	}
	if topo.IsGateway(59) {
		t.Fatal("node 59 misreported as gateway")
	}
	if topo.IndexInCluster(33) != 3 {
		t.Fatalf("indexInCluster(33)=%d", topo.IndexInCluster(33))
	}
}

func TestSingleClusterHasNoGateways(t *testing.T) {
	topo := Topology{Clusters: 1, NodesPerCluster: 8}
	if topo.Total() != 8 {
		t.Fatalf("total %d", topo.Total())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Gateway on 1-cluster topology did not panic")
		}
	}()
	topo.Gateway(0)
}

// TestNodeMisusePanics: asking for a node the topology does not have panics
// with a message naming it.
func TestNodeMisusePanics(t *testing.T) {
	topo := Topology{Clusters: 2, NodesPerCluster: 3}
	for _, tc := range []struct {
		fn   func()
		want string
	}{
		{func() { topo.Gateway(2) }, "cluster: gateway of invalid cluster 2"},
		{func() { topo.Node(0, 3) }, "cluster: invalid node (0,3) in 2x3"},
		{func() { topo.IndexInCluster(topo.Gateway(1)) }, "cluster: IndexInCluster of gateway"},
	} {
		func() {
			defer func() {
				if r := recover(); r != tc.want {
					t.Errorf("panic %v, want %q", r, tc.want)
				}
			}()
			tc.fn()
		}()
	}
}

// TestClusterOfOutOfRange: on an irregular topology a node below 0 or past
// the last gateway panics naming it, instead of mapping to a cluster.
func TestClusterOfOutOfRange(t *testing.T) {
	topo := Irregular(4, 2, 3) // 9 compute nodes, gateways 9..11
	for _, n := range []NodeID{-1, 12, 100} {
		func() {
			want := fmt.Sprintf("cluster: node %d out of range", n)
			defer func() {
				if r := recover(); r != want {
					t.Errorf("ClusterOf(%d) panic %v, want %q", n, r, want)
				}
			}()
			topo.ClusterOf(n)
		}()
	}
	if got := topo.ClusterOf(11); got != 2 {
		t.Fatalf("ClusterOf(11)=%d, want the last gateway's cluster 2", got)
	}
}

func TestValidate(t *testing.T) {
	if err := (Topology{Clusters: 0, NodesPerCluster: 4}).Validate(); err == nil {
		t.Fatal("zero clusters accepted")
	}
	if err := (Topology{Clusters: 2, NodesPerCluster: 0}).Validate(); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if err := (Topology{Clusters: 4, NodesPerCluster: 15}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNodeClusterRoundTrip(t *testing.T) {
	prop := func(c8, n8, i8 uint8) bool {
		cs := int(c8%6) + 1
		npc := int(n8%20) + 1
		topo := Topology{Clusters: cs, NodesPerCluster: npc}
		c := int(i8) % cs
		i := int(i8/7) % npc
		n := topo.Node(c, i)
		return topo.ClusterOf(n) == c && topo.IndexInCluster(n) == i && !topo.IsGateway(n)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNodesList(t *testing.T) {
	topo := Topology{Clusters: 3, NodesPerCluster: 4}
	ns := topo.Nodes(1)
	if len(ns) != 4 || ns[0] != 4 || ns[3] != 7 {
		t.Fatalf("nodes %v", ns)
	}
}

func TestDASParamsShape(t *testing.T) {
	p := DASParams()
	// The paper's two-orders-of-magnitude gap must hold in the presets.
	if ratio := float64(p.WANLatency) / float64(p.LANLatency); ratio < 30 {
		t.Fatalf("WAN/LAN latency ratio %v too small", ratio)
	}
	if ratio := p.LANBandwidth / p.WANBandwidth; ratio < 30 {
		t.Fatalf("LAN/WAN bandwidth ratio %v too small", ratio)
	}
}

func TestMbit(t *testing.T) {
	if Mbit(8) != 1e6 {
		t.Fatalf("Mbit(8)=%v", Mbit(8))
	}
}

func TestIrregularTopology(t *testing.T) {
	topo := Irregular(4, 2, 3)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if topo.Compute() != 9 || topo.Total() != 12 {
		t.Fatalf("compute %d total %d", topo.Compute(), topo.Total())
	}
	wantCluster := []int{0, 0, 0, 0, 1, 1, 2, 2, 2}
	for n, c := range wantCluster {
		if got := topo.ClusterOf(NodeID(n)); got != c {
			t.Fatalf("ClusterOf(%d)=%d, want %d", n, got, c)
		}
	}
	if topo.Node(1, 1) != 5 || topo.Node(2, 0) != 6 {
		t.Fatalf("node ids wrong: %d %d", topo.Node(1, 1), topo.Node(2, 0))
	}
	if topo.IndexInCluster(7) != 1 {
		t.Fatalf("IndexInCluster(7)=%d", topo.IndexInCluster(7))
	}
	if topo.Size(0) != 4 || topo.Size(2) != 3 {
		t.Fatal("sizes wrong")
	}
	gw := topo.Gateway(1)
	if gw != 10 || topo.ClusterOf(gw) != 1 {
		t.Fatalf("gateway %d cluster %d", gw, topo.ClusterOf(gw))
	}
	if got := topo.Nodes(1); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("nodes(1)=%v", got)
	}
}

func TestDASReal(t *testing.T) {
	topo := DASReal()
	if topo.Compute() != 136 {
		t.Fatalf("real DAS has %d compute nodes, want 136", topo.Compute())
	}
	if topo.Size(0) != 64 || topo.Size(3) != 24 {
		t.Fatal("real DAS sizes wrong")
	}
	if topo.String() != "4x[64,24,24,24]" {
		t.Fatalf("string %q", topo.String())
	}
}

func TestTopologyString(t *testing.T) {
	if got := DAS(4, 16).String(); got != "4x16" {
		t.Fatalf("uniform string %q", got)
	}
	// A Sizes topology must show the per-cluster sizes, not the ignored
	// NodesPerCluster field.
	irr := Irregular(8, 16, 32)
	irr.NodesPerCluster = 99
	if got := irr.String(); got != "3x[8,16,32]" {
		t.Fatalf("irregular string %q", got)
	}
}

func TestIrregularValidate(t *testing.T) {
	if err := (Topology{Clusters: 2, Sizes: []int{3}}).Validate(); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := (Topology{Clusters: 2, Sizes: []int{3, 0}}).Validate(); err == nil {
		t.Fatal("zero size accepted")
	}
}

func TestIrregularRoundTrip(t *testing.T) {
	prop := func(a, b, c uint8) bool {
		topo := Irregular(int(a%5)+1, int(b%5)+1, int(c%5)+1)
		for cl := 0; cl < topo.Clusters; cl++ {
			for i := 0; i < topo.Size(cl); i++ {
				n := topo.Node(cl, i)
				if topo.ClusterOf(n) != cl || topo.IndexInCluster(n) != i {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
