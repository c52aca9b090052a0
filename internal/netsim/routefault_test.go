package netsim

import (
	"slices"
	"testing"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/sim"
)

// ringTestNet builds a 4-root ring backbone (one class, 1000us / 1 MB/s),
// two compute nodes per cluster. Nodes 2c and 2c+1 belong to cluster c;
// gateways are 8+c.
func ringTestNet(t testing.TB, par cluster.Params) (*sim.Engine, *testNet) {
	t.Helper()
	b := cluster.NewBuilder()
	bb := b.Class("backbone", 1000*time.Microsecond, 1e6, 0)
	b.Roots(4, cluster.Ring, bb, 2)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	return e, collect(New(e, topo, par))
}

// TestRingRerouteSecondDirection: with the forward ring link 0→1 cut, a
// message from cluster 0 to cluster 1 goes the other way round (0→3→2→1)
// instead of blackholing — and the path scan turns the route around at the
// source, so no hop ever bounces back toward the cut.
func TestRingRerouteSecondDirection(t *testing.T) {
	e, n := ringTestNet(t, testParams())
	n.SetFaultPolicy(&testPolicy{downs: downPair(0, 1, 0, time.Hour)})
	n.Send(Msg{From: 0, To: 2, Kind: KindData, Size: 1000})
	at := recvTime(t, e, n, 2)
	// FE 151us + three backbone hops (0→3, 3→2, 2→1) at 2001us each + FE
	// 151us: the long way round, each hop 1000us serialization + 1000us
	// latency + 1us overhead.
	want := (151 + 3*2001 + 151) * time.Microsecond
	if at != want {
		t.Fatalf("rerouted delivery at %v, want %v", at, want)
	}
	// 0 detours (Next says 1, route takes 3) and 3 detours (Next's
	// tie-forward says 0, the scan sees the cut and goes 2); the final hop
	// 2→1 is the static choice.
	if got := n.Stats().Reroutes(); got != 2 {
		t.Fatalf("reroutes = %d, want 2", got)
	}
	if got := n.Stats().HeldMsgs(); got != 0 {
		t.Fatalf("held = %d, want 0 (an alternate existed)", got)
	}
}

// TestMeshDetourOneIntermediate: on the full mesh a cut direct
// link detours through the lowest-index third cluster, turning the
// single-hop mesh route into a store-and-forward two-hop route.
func TestMeshDetourOneIntermediate(t *testing.T) {
	e, n := build(3, 2)
	n.SetFaultPolicy(&testPolicy{downs: downPair(0, 1, 0, time.Hour)})
	n.Send(Msg{From: 0, To: 2, Kind: KindData, Size: 1000})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := n.Inbox(2).Len(); got != 1 {
		t.Fatalf("delivered %d, want 1", got)
	}
	if got := n.Stats().Reroutes(); got != 1 {
		t.Fatalf("reroutes = %d, want 1", got)
	}
	// The traffic crossed 0→2 and 2→1, never 0→1.
	for _, r := range n.PipeReports() {
		if r.From == 0 && r.To == 1 {
			t.Fatalf("detoured message still crossed the cut link: %+v", r)
		}
	}
}

// twoRootNet builds a two-root backbone (1000us / 1 MB/s), two compute
// nodes per cluster: the one WAN link has no alternate path.
func twoRootNet(t testing.TB, par cluster.Params) (*sim.Engine, *testNet) {
	t.Helper()
	b := cluster.NewBuilder()
	bb := b.Class("backbone", 1000*time.Microsecond, 1e6, 0)
	b.Roots(2, cluster.Mesh, bb, 2)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	return e, collect(New(e, topo, par))
}

// holdKinds runs the hold-queue tests over both kinds of wire unit: plain
// one-message units and coalesced frames park in the same queue through the
// same code. unitsFor reports how many wire units k same-instant 600-byte
// messages from one cluster become.
var holdKinds = []struct {
	name     string
	par      func() cluster.Params
	unitsFor func(k int) int64
}{
	{"plain", testParams, func(k int) int64 { return int64(k) }},
	{"framed", func() cluster.Params {
		par := testParams()
		par.CoalesceWindow = 100 * time.Microsecond
		par.MaxFrameBytes = 1000 // two 600-byte messages seal a frame
		return par
	}, func(k int) int64 { return int64((k + 1) / 2) }},
}

// holdPlatforms are two descriptions of one WAN link with no alternate path:
// a declared two-root backbone, and the two-cluster mesh shorthand (no third
// cluster to detour through).
var holdPlatforms = []struct {
	name  string
	build func(t testing.TB, par cluster.Params) (*sim.Engine, *testNet)
}{
	{"declared", twoRootNet},
	{"mesh", func(_ testing.TB, par cluster.Params) (*sim.Engine, *testNet) { return buildWith(2, 2, par) }},
}

// TestHeldUnitsDrainFIFOOnHeal: with no alternate path, traffic parks at the
// gateway during the cut and drains in send order once the link heals —
// frames additionally reassembling in sequence order behind the cut.
func TestHeldUnitsDrainFIFOOnHeal(t *testing.T) {
	for _, kind := range holdKinds {
		for _, pf := range holdPlatforms {
			t.Run(kind.name+"/"+pf.name, func(t *testing.T) {
				e, n := pf.build(t, kind.par())
				n.SetFaultPolicy(&testPolicy{downs: downPair(0, 1, 0, 5*time.Millisecond)})
				var order []int
				var first time.Duration = -1
				n.SetHandler(2, func(m Msg) {
					if first < 0 {
						first = e.Now()
					}
					order = append(order, m.Payload.(int))
				})
				// Two senders interleaved, so FIFO is across the cluster's
				// traffic, not just per sending node.
				const k = 4
				for i := 0; i < k; i++ {
					n.Send(Msg{From: cluster.NodeID(i % 2), To: 2, Kind: KindData, Size: 600, Payload: i})
				}
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}
				if len(order) != k {
					t.Fatalf("delivered %d messages, want %d", len(order), k)
				}
				for i, v := range order {
					if v != i {
						t.Fatalf("deliveries %v, want in-order 0..%d (FIFO drain)", order, k-1)
					}
				}
				if first < 5*time.Millisecond {
					t.Fatalf("delivery at %v, before the link healed", first)
				}
				s := n.Stats()
				if s.HeldMsgs() != kind.unitsFor(k) || s.HoldDrops() != 0 {
					t.Fatalf("held=%d drops=%d, want %d held, 0 dropped", s.HeldMsgs(), s.HoldDrops(), kind.unitsFor(k))
				}
			})
		}
	}
}

// TestHoldQueueOverflowDropsNewcomers: a full hold queue drops the arriving
// unit with a counted verdict and keeps what it already holds; after heal
// exactly the held units deliver, still in order, and — framed — reassembly
// is not wedged by the dropped units (they never consumed a sequence number
// the receiver waits on without a tombstone).
func TestHoldQueueOverflowDropsNewcomers(t *testing.T) {
	for _, kind := range holdKinds {
		t.Run(kind.name, func(t *testing.T) {
			e, n := twoRootNet(t, kind.par())
			n.SetFaultPolicy(&testPolicy{downs: downPair(0, 1, 0, 5*time.Millisecond)})
			var order []int
			n.SetHandler(2, func(m Msg) { order = append(order, m.Payload.(int)) })
			// Sends originate at the gateway (node 4) so every message reaches
			// the egress stage at t=0, before the first retry tick.
			const over = 6
			k := 2 * (holdQueueCap + over) // even: whole frames on the framed path
			for i := 0; i < k; i++ {
				n.Send(Msg{From: 4, To: 2, Kind: KindData, Size: 600, Payload: i})
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			units := kind.unitsFor(k)
			s := n.Stats()
			if s.HeldMsgs() != holdQueueCap || s.HoldDrops() != units-holdQueueCap {
				t.Fatalf("held=%d drops=%d, want %d held, %d dropped", s.HeldMsgs(), s.HoldDrops(), holdQueueCap, units-holdQueueCap)
			}
			want := int(int64(k) * holdQueueCap / units) // messages inside the held units
			if len(order) != want {
				t.Fatalf("delivered %d messages, want %d (the held units)", len(order), want)
			}
			for i, v := range order {
				if v != i {
					t.Fatalf("delivery %d is message %d: held units left out of order", i, v)
				}
			}
			// The link is up again: later traffic is neither held nor stuck
			// behind the dropped units' sequence numbers.
			n.Send(Msg{From: 4, To: 2, Kind: KindData, Size: 600, Payload: k})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if len(order) != want+1 || order[want] != k {
				t.Fatalf("post-heal message not delivered (got %d deliveries)", len(order))
			}
		})
	}
}

// TestHoldTimeoutDropsUnderPermanentPartition: when the cut never heals,
// held traffic is dropped after the hold timeout with a counted verdict —
// the network gives up so ARQ owns recovery, and the run terminates instead
// of retrying forever.
func TestHoldTimeoutDropsUnderPermanentPartition(t *testing.T) {
	e, n := twoRootNet(t, testParams())
	n.SetFaultPolicy(&testPolicy{downs: downPair(0, 1, 0, forever)})
	n.Send(Msg{From: 0, To: 2, Kind: KindData, Size: 1000})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := n.Inbox(2).Len(); got != 0 {
		t.Fatalf("delivered %d across a permanent partition", got)
	}
	s := n.Stats()
	if s.HeldMsgs() != 1 || s.HoldDrops() != 1 {
		t.Fatalf("held=%d drops=%d, want 1 held then 1 dropped", s.HeldMsgs(), s.HoldDrops())
	}
	if now := e.Now(); now < holdTimeout || now > holdTimeout+time.Second {
		t.Fatalf("run ended at %v, want shortly after the %v hold timeout", now, holdTimeout)
	}
}

// TestUplinkCutHoldsSubtreeTraffic: a tree uplink has no alternate, so
// cutting it parks the subtree's outbound traffic until heal.
func TestUplinkCutHoldsSubtreeTraffic(t *testing.T) {
	e, n := tieredTestNet(t, testParams(), 0)
	// Cluster 1 hangs under root 0; cut its uplink both ways for 5ms.
	cut := append(downPair(1, 0, 0, 5*time.Millisecond), downPair(0, 1, 0, 5*time.Millisecond)...)
	n.SetFaultPolicy(&testPolicy{downs: cut})
	n.Send(Msg{From: 2, To: 6, Kind: KindData, Size: 1000}) // leaf 1 → leaf 3
	at := recvTime(t, e, n, 6)
	if at < 5*time.Millisecond {
		t.Fatalf("delivery at %v, before the uplink healed", at)
	}
	s := n.Stats()
	if s.HeldMsgs() != 1 {
		t.Fatalf("held=%d, want 1", s.HeldMsgs())
	}
	if s.Reroutes() != 0 {
		t.Fatalf("reroutes=%d, want 0 (tree edges have no alternates)", s.Reroutes())
	}
}

// TestRuledOnceOnMultiHopRoute: the drop verdict applies once, where a unit
// enters the WAN at its source gateway. The intermediate gateways of a 4-hop
// tiered route consult only gateway liveness, so a policy that never drops is
// asked about the message exactly once, at cluster 1, and every gateway on
// the route is asked whether it is up.
func TestRuledOnceOnMultiHopRoute(t *testing.T) {
	e, n := tieredTestNet(t, testParams(), 0)
	var ruledAt, upAt []int
	n.SetFaultPolicy(&testPolicy{
		transit: func(_ time.Duration, cs, _ int, _ Msg) bool {
			ruledAt = append(ruledAt, cs)
			return false
		},
		gwDown: func(_ time.Duration, c int, _ Msg) bool {
			upAt = append(upAt, c)
			return false
		},
	})
	n.Send(Msg{From: 2, To: 6, Kind: KindData, Size: 1000}) // route 1→0→2→3
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{1}; !slices.Equal(ruledAt, want) {
		t.Fatalf("WANTransit ruled at clusters %v, want %v (source only)", ruledAt, want)
	}
	if want := []int{1, 0, 2, 3}; !slices.Equal(upAt, want) {
		t.Fatalf("GatewayDown asked at clusters %v, want every gateway of the route %v", upAt, want)
	}
	if got := n.Inbox(6).Len(); got != 1 {
		t.Fatalf("delivered %d copies, want 1", got)
	}
}

// TestRerouteBackThroughSourceGateway: a cut discovered mid-route reverses a
// ring route, carrying the wire unit back through its own source gateway. A
// frame was ruled on when it was sealed and must not be ruled on again — a
// second drop verdict would lose its sequence number without a tombstone and
// wedge every later frame of the pair. A plain message standing at its source
// gateway is ruled on again; chaos-run results depend on that surviving
// difference, so it is written down here.
func TestRerouteBackThroughSourceGateway(t *testing.T) {
	for _, kind := range holdKinds {
		t.Run(kind.name, func(t *testing.T) {
			e, n := ringTestNet(t, kind.par())
			// The unit leaves cluster 0 toward 1 well before 1ms and reaches
			// cluster 1 after it: 1→2 is down by then, so the route turns
			// round, 1→0→3→2.
			inspections := 0
			n.SetFaultPolicy(&testPolicy{
				downs: downPair(1, 2, time.Millisecond, time.Hour),
				transit: func(time.Duration, int, int, Msg) bool {
					inspections++
					return false
				},
			})
			n.Send(Msg{From: 0, To: 4, Kind: KindData, Size: 600})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if got := n.Inbox(4).Len(); got != 1 {
				t.Fatalf("delivered %d, want 1", got)
			}
			var viaSource int64
			for _, r := range n.PipeReports() {
				if r.From == 0 && r.To == 3 {
					viaSource = r.Msgs
				}
			}
			if viaSource != 1 {
				t.Fatalf("route did not return through the source gateway: %+v", n.PipeReports())
			}
			want := 1
			if n.xp == nil {
				want = 2
			}
			if inspections != want {
				t.Fatalf("WANTransit consulted %d times, want %d", inspections, want)
			}
		})
	}
}
