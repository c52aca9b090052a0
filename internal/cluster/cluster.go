// Package cluster models the multilevel (LAN/WAN) platform of the paper:
// a set of workstation clusters, each with a dedicated gateway node,
// interconnected by wide-area links. It provides the node numbering scheme
// shared by the network emulator and the runtime, plus parameter presets
// matching the DAS system's measured Table-1 figures.
package cluster

import (
	"fmt"
	"strconv"
	"time"
)

// NodeID identifies a machine (compute node or gateway) in the system.
// Compute nodes are numbered 0..Topology.Compute()-1, cluster by cluster;
// gateway g of cluster c has ID Topology.Compute()+c.
type NodeID int

// Topology describes the shape of a multilevel cluster system. Clusters are
// uniform (NodesPerCluster each) unless Sizes gives per-cluster node counts,
// as in the real DAS system whose VU Amsterdam cluster has 64 nodes and the
// other three sites 24 (Figure 17).
type Topology struct {
	Clusters        int   // number of clusters
	NodesPerCluster int   // compute nodes per cluster (ignored when Sizes is set)
	Sizes           []int // optional per-cluster sizes; len must equal Clusters

	// WAN is the wide-area link graph (tiers, rings, per-link capacity
	// classes), built by Builder or ParseTopology (dsl.go). Nil is shorthand
	// for the paper's platform — every cluster pair joined directly at
	// Params' uniform WANLatency/WANBandwidth — which Graph spells out.
	WAN *Graph
}

// Graph validates the topology and returns the link graph intercluster
// traffic is routed over: the declared one, or, for the nil-WAN shorthand,
// a full mesh of one "wan" class at par's uniform WAN figures (streams 0, the
// transport default), wired by the same Builder as every declared platform.
func (t Topology) Graph(par Params) (*Graph, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if t.WAN != nil {
		return t.WAN, nil
	}
	b := NewBuilder()
	b.Roots(t.Clusters, Mesh, b.Class("wan", par.WANLatency, par.WANBandwidth, 0), 1)
	mesh, err := b.Build()
	return mesh.WAN, err
}

// Validate reports an error for nonsensical shapes.
func (t Topology) Validate() error {
	if t.Clusters <= 0 {
		return fmt.Errorf("cluster: Clusters must be positive, got %d", t.Clusters)
	}
	if t.WAN != nil {
		if err := t.WAN.Validate(t.Clusters); err != nil {
			return err
		}
	}
	if t.Sizes != nil {
		if len(t.Sizes) != t.Clusters {
			return fmt.Errorf("cluster: %d sizes for %d clusters", len(t.Sizes), t.Clusters)
		}
		for c, s := range t.Sizes {
			if s <= 0 {
				return fmt.Errorf("cluster: cluster %d has non-positive size %d", c, s)
			}
		}
		return nil
	}
	if t.NodesPerCluster <= 0 {
		return fmt.Errorf("cluster: NodesPerCluster must be positive, got %d", t.NodesPerCluster)
	}
	return nil
}

// Size reports the number of compute nodes in cluster c.
func (t Topology) Size(c int) int {
	if t.Sizes != nil {
		return t.Sizes[c]
	}
	return t.NodesPerCluster
}

// offset reports the first node id of cluster c.
func (t Topology) offset(c int) int {
	if t.Sizes == nil {
		return c * t.NodesPerCluster
	}
	off := 0
	for i := 0; i < c; i++ {
		off += t.Sizes[i]
	}
	return off
}

// Compute reports the total number of compute nodes.
func (t Topology) Compute() int {
	if t.Sizes == nil {
		return t.Clusters * t.NodesPerCluster
	}
	sum := 0
	for _, s := range t.Sizes {
		sum += s
	}
	return sum
}

// Total reports compute nodes plus gateways. Single-cluster systems need no
// gateway, matching the paper's setup where gateways exist only for WAN use.
func (t Topology) Total() int {
	if t.Clusters == 1 {
		return t.Compute()
	}
	return t.Compute() + t.Clusters
}

// ClusterOf reports which cluster a node (compute or gateway) belongs to.
// It panics for a node the topology does not have.
func (t Topology) ClusterOf(n NodeID) int {
	comp := t.Compute()
	total := comp
	if t.Clusters != 1 {
		total += t.Clusters
	}
	if n < 0 || int(n) >= total {
		panic(fmt.Sprintf("cluster: node %d out of range", n))
	}
	if int(n) >= comp {
		return int(n) - comp
	}
	if t.Sizes == nil {
		return int(n) / t.NodesPerCluster
	}
	c, rest := 0, int(n)
	for rest >= t.Sizes[c] {
		rest -= t.Sizes[c]
		c++
	}
	return c
}

// Gateway returns the gateway node of cluster c. It panics for
// single-cluster topologies, which have no gateways.
func (t Topology) Gateway(c int) NodeID {
	if t.Clusters == 1 {
		panic("cluster: single-cluster topology has no gateway")
	}
	if c < 0 || c >= t.Clusters {
		panic(fmt.Sprintf("cluster: gateway of invalid cluster %d", c))
	}
	return NodeID(t.Compute() + c)
}

// IsGateway reports whether n is a gateway node.
func (t Topology) IsGateway(n NodeID) bool { return int(n) >= t.Compute() }

// Node returns the i'th compute node of cluster c.
func (t Topology) Node(c, i int) NodeID {
	if c < 0 || c >= t.Clusters || i < 0 || i >= t.Size(c) {
		panic(fmt.Sprintf("cluster: invalid node (%d,%d) in %v", c, i, t))
	}
	return NodeID(t.offset(c) + i)
}

// Nodes returns the compute nodes of cluster c in order.
func (t Topology) Nodes(c int) []NodeID {
	out := make([]NodeID, t.Size(c))
	for i := range out {
		out[i] = t.Node(c, i)
	}
	return out
}

// SameCluster reports whether two nodes are in the same cluster.
func (t Topology) SameCluster(a, b NodeID) bool { return t.ClusterOf(a) == t.ClusterOf(b) }

// IndexInCluster reports a compute node's rank within its cluster.
func (t Topology) IndexInCluster(n NodeID) int {
	if t.IsGateway(n) {
		panic("cluster: IndexInCluster of gateway")
	}
	return int(n) - t.offset(t.ClusterOf(n))
}

func (t Topology) String() string {
	var b []byte
	if t.WAN != nil {
		b = append(b, "grid["...)
		b = strconv.AppendInt(b, int64(t.Clusters), 10)
		b = append(b, "c/"...)
		b = strconv.AppendInt(b, int64(t.Compute()), 10)
		b = append(b, 'n')
		for _, c := range t.WAN.Classes {
			b = append(b, ' ')
			b = append(b, c.Name...)
		}
		b = append(b, ' ')
		b = append(b, t.WAN.ic.String()...)
		b = append(b, ']')
		return string(b)
	}
	if t.Sizes != nil {
		// Per-cluster sizes: "3x[8,16,32]", not the uniform CxN form (whose
		// NodesPerCluster is ignored and would mislead).
		b = strconv.AppendInt(b, int64(t.Clusters), 10)
		b = append(b, 'x', '[')
		for i, s := range t.Sizes {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(s), 10)
		}
		b = append(b, ']')
		return string(b)
	}
	return fmt.Sprintf("%dx%d", t.Clusters, t.NodesPerCluster)
}

// Params holds the application-level performance parameters of the two
// network levels, in the units the paper reports them.
type Params struct {
	// LAN (intracluster, Myrinet in the paper).
	LANLatency      time.Duration // one-way point-to-point message latency
	LANBandwidth    float64       // bytes/second
	LANBcastLatency time.Duration // physical broadcast latency to all cluster members

	// Fast Ethernet hop between a compute node and its cluster gateway.
	FELatency   time.Duration
	FEBandwidth float64

	// WAN (intercluster, gateway to gateway, ATM PVC in the paper).
	WANLatency   time.Duration // one-way gateway-to-gateway latency
	WANBandwidth float64       // bytes/second per directed cluster pair

	// Software overhead charged per protocol message at each endpoint
	// (marshalling, dispatch); folded into delivery times.
	SoftwareOverhead time.Duration

	// GatewayCost is the per-message forwarding time of a gateway's
	// protocol stack (the paper's gateways forward every WAN message over
	// IP). Messages serialize on each gateway they traverse, so floods of
	// small messages can make the gateways themselves the bottleneck —
	// the effect the paper describes for ACP ("much traffic for cluster
	// gateways"). Zero (the calibrated default) disables the extra stage.
	GatewayCost time.Duration

	// Gateway transport optimization (MPWide-style; zero values disable
	// it, restoring the paper's plain store-and-forward gateways).
	//
	// MaxFrameBytes bounds a coalesced frame: intercluster messages bound
	// for the same destination cluster queue at the local gateway and
	// leave as one frame, paying one WAN serialization and one software
	// overhead per frame instead of per message. A frame is flushed as
	// soon as its payload reaches MaxFrameBytes.
	MaxFrameBytes int
	// CoalesceWindow bounds how long a queued message may wait for frame
	// companions: a frame is flushed at latest CoalesceWindow after its
	// first message arrived at the gateway. Either bound alone enables
	// coalescing (the other is then effectively infinite).
	CoalesceWindow time.Duration
	// WANStreams stripes frames round-robin over this many parallel WAN
	// pipes per directed cluster pair (multipath), each with the full
	// WANLatency/WANBandwidth, with in-order frame reassembly at the
	// remote gateway. 0 or 1 keeps the single pipe.
	WANStreams int
}

// TransportEnabled reports whether the gateway transport optimization layer
// (frame coalescing and/or multipath striping) is configured on.
func (p Params) TransportEnabled() bool {
	return p.MaxFrameBytes > 0 || p.CoalesceWindow > 0 || p.WANStreams > 1
}

// Mbit converts megabits/second to bytes/second.
func Mbit(m float64) float64 { return m * 1e6 / 8 }

// DASParams returns parameters calibrated to the paper's Table 1:
// 40 us LAN null-RPC latency, 208 Mbit/s LAN bandwidth, 2.7 ms WAN round
// trip, 4.53 Mbit/s WAN bandwidth. The LAN replicated update comes out at
// 68 us against the paper's 65 us: a submit message to the sequencer and
// one hardware multicast, ordering itself costing nothing.
//
// The WAN round trip in the paper is 2.7 ms application-to-application; one
// message crosses Fast Ethernet to the gateway, the WAN link, and Fast
// Ethernet again, so the one-way budget is 1.35 ms split across those hops.
func DASParams() Params {
	return Params{
		LANLatency:       18 * time.Microsecond, // 40 us RPC = 2 messages + overheads
		LANBandwidth:     Mbit(208),
		LANBcastLatency:  40 * time.Microsecond,
		FELatency:        70 * time.Microsecond,
		FEBandwidth:      Mbit(80),
		WANLatency:       1150 * time.Microsecond,
		WANBandwidth:     Mbit(4.53),
		SoftwareOverhead: 2 * time.Microsecond,
	}
}

// InternetParams mimics the paper's "ordinary Internet on a quiet Sunday
// morning" measurement: 8 ms round trip, 1.8 Mbit/s.
func InternetParams() Params {
	p := DASParams()
	p.WANLatency = 3800 * time.Microsecond
	p.WANBandwidth = Mbit(1.8)
	return p
}

// SlowWANParams mimics the paper's "slower network" scenario used in the
// ATPG discussion: 10 ms latency, 2 Mbit/s bandwidth.
func SlowWANParams() Params {
	p := DASParams()
	p.WANLatency = 5 * time.Millisecond
	p.WANBandwidth = Mbit(2)
	return p
}

// DAS returns a uniform multicluster like the paper's experiments use
// (the measurements split the system into equal clusters).
func DAS(clusters, nodesPerCluster int) Topology {
	return Topology{Clusters: clusters, NodesPerCluster: nodesPerCluster}
}

// Irregular returns a topology with explicit per-cluster sizes.
func Irregular(sizes ...int) Topology {
	return Topology{Clusters: len(sizes), Sizes: append([]int(nil), sizes...)}
}

// DASReal returns the full Distributed ASCI Supercomputer of the paper's
// Figure 17: VU Amsterdam 64 nodes, UvA Amsterdam, Leiden and Delft 24 each
// (136 compute nodes plus four gateways).
func DASReal() Topology { return Irregular(64, 24, 24, 24) }

// Site names of the DAS system, for presentation.
var DASSites = []string{"VU Amsterdam", "UvA Amsterdam", "Leiden", "Delft"}
