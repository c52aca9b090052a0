package netsim

import (
	"testing"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/sim"
)

// tieredTestNet builds a two-tier platform with round-number link classes:
// clusters 0,2 are backbone roots (trunk: 1000us, 1 MB/s), clusters 1,3 hang
// one each under a root (leaf: 200us, 2 MB/s). Two compute nodes per cluster,
// so node 2 is cluster 1's first node and node 6 cluster 3's; gateways are
// 8+c. LAN/FE figures come from testParams.
func tieredTestNet(t testing.TB, par cluster.Params, classStreams int) (*sim.Engine, *testNet) {
	t.Helper()
	e := sim.NewEngine()
	return e, collect(New(e, tieredTopology(t, classStreams), par))
}

// tieredTopology is tieredTestNet's platform.
func tieredTopology(t testing.TB, classStreams int) cluster.Topology {
	t.Helper()
	b := cluster.NewBuilder()
	trunk := b.Class("trunk", 1000*time.Microsecond, 1e6, classStreams)
	leaf := b.Class("leaf", 200*time.Microsecond, 2e6, 0)
	roots := b.Roots(2, cluster.Mesh, trunk, 2)
	b.Tier(roots, 1, leaf, 2)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestTieredDeliveryTime(t *testing.T) {
	// Leaf-to-leaf across the backbone: node 2 (cluster 1) → node 6
	// (cluster 3), 1000 bytes, route 1→0→2→3.
	// FE:          100us ser + 50us lat + 1us ovh            = 151us
	// leaf 1→0:    500us ser (2 MB/s) + 200us lat + 1us ovh  = 701us
	// trunk 0→2:   1000us ser (1 MB/s) + 1000us lat + 1us    = 2001us
	// leaf 2→3:                                              = 701us
	// FE:                                                    = 151us
	e, n := tieredTestNet(t, testParams(), 0)
	n.Send(Msg{From: 2, To: 6, Kind: KindData, Size: 1000})
	got := recvTime(t, e, n, 6)
	want := (151 + 701 + 2001 + 701 + 151) * time.Microsecond
	if got != want {
		t.Fatalf("tiered delivery at %v, want %v", got, want)
	}
}

func TestTieredGatewayToGateway(t *testing.T) {
	// Gateway-to-gateway traffic (protocol forwarding) skips both FE legs.
	e, n := tieredTestNet(t, testParams(), 0)
	gw1, gw3 := cluster.NodeID(8+1), cluster.NodeID(8+3)
	n.Send(Msg{From: gw1, To: gw3, Kind: KindControl, Size: 1000})
	got := recvTime(t, e, n, gw3)
	want := (701 + 2001 + 701) * time.Microsecond
	if got != want {
		t.Fatalf("gw-gw delivery at %v, want %v", got, want)
	}
}

func TestTieredOneHop(t *testing.T) {
	// Leaf to its own root is a single leaf-class hop.
	e, n := tieredTestNet(t, testParams(), 0)
	n.Send(Msg{From: 2, To: 0, Kind: KindData, Size: 1000})
	got := recvTime(t, e, n, 0)
	want := (151 + 701 + 151) * time.Microsecond
	if got != want {
		t.Fatalf("one-hop delivery at %v, want %v", got, want)
	}
}

// countDeliveries installs counting handlers on every compute node.
func countDeliveries(n *testNet) *int {
	count := new(int)
	topo := n.Topology()
	for c := 0; c < topo.Clusters; c++ {
		for _, id := range topo.Nodes(c) {
			n.SetHandler(id, func(Msg) { *count++ })
		}
	}
	return count
}

func TestTieredConservation(t *testing.T) {
	// Every message sent between every ordered pair of compute nodes must be
	// delivered exactly once, whatever the route length.
	e, n := tieredTestNet(t, testParams(), 0)
	count := countDeliveries(n)
	topo := n.Topology()
	sent := 0
	for from := 0; from < topo.Compute(); from++ {
		for to := 0; to < topo.Compute(); to++ {
			if from == to {
				continue
			}
			n.Send(Msg{From: cluster.NodeID(from), To: cluster.NodeID(to), Kind: KindData, Size: 64})
			sent++
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if *count != sent {
		t.Fatalf("delivered %d of %d messages", *count, sent)
	}
}

func TestTieredSharedLinkCongestion(t *testing.T) {
	// Two messages from different source clusters cross the same trunk link
	// 0→2; the second serializes behind the first, which per-link congestion
	// modelling must record on that physical link only.
	e, n := tieredTestNet(t, testParams(), 0)
	count := countDeliveries(n)
	n.Send(Msg{From: 2, To: 6, Kind: KindData, Size: 10000}) // cluster 1 → 3
	n.Send(Msg{From: 0, To: 7, Kind: KindData, Size: 10000}) // cluster 0 → 3
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if *count != 2 {
		t.Fatalf("delivered %d of 2", *count)
	}
	reports := n.PipeReports()
	byLink := map[[2]int]PipeReport{}
	for _, r := range reports {
		byLink[[2]int{r.From, r.To}] = r
	}
	trunk, ok := byLink[[2]int{0, 2}]
	if !ok || trunk.Msgs != 2 {
		t.Fatalf("trunk link 0→2 report %+v (all %+v)", trunk, reports)
	}
	if trunk.MaxQueueing <= 0 {
		t.Fatal("second trunk transmission did not queue")
	}
	if leaf, ok := byLink[[2]int{1, 0}]; !ok || leaf.Msgs != 1 || leaf.MaxQueueing != 0 {
		t.Fatalf("leaf link 1→0 report %+v", leaf)
	}
	if last, ok := byLink[[2]int{2, 3}]; !ok || last.Msgs != 2 {
		t.Fatalf("leaf link 2→3 report %+v", last)
	}
	if _, ok := byLink[[2]int{1, 2}]; ok {
		t.Fatal("nonexistent link 1→2 carried traffic")
	}
}

func TestClassReports(t *testing.T) {
	e, n := tieredTestNet(t, testParams(), 0)
	count := countDeliveries(n)
	n.Send(Msg{From: 2, To: 6, Kind: KindData, Size: 10000}) // leaf, trunk, leaf
	n.Send(Msg{From: 0, To: 7, Kind: KindData, Size: 10000}) // trunk, leaf
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if *count != 2 {
		t.Fatalf("delivered %d of 2", *count)
	}
	reports := n.ClassReports()
	if len(reports) != 2 {
		t.Fatalf("class reports: %+v", reports)
	}
	trunk, leaf := reports[0], reports[1]
	if trunk.Class != "trunk" || leaf.Class != "leaf" {
		t.Fatalf("class order: %+v", reports)
	}
	if trunk.Xmits != 2 || trunk.Msgs != 2 || trunk.Bytes != 20000 {
		t.Fatalf("trunk report %+v", trunk)
	}
	if leaf.Xmits != 3 || leaf.Bytes != 30000 {
		t.Fatalf("leaf report %+v", leaf)
	}
	// 10000 B at 1 MB/s = 10ms serialization per trunk transmission. The
	// cluster-0 message enters the trunk at 1051us (FE leg) and holds it
	// until 11051us; the cluster-1 message arrives at 6252us (FE + leaf hop)
	// and waits exactly 11051-6252 = 4799us behind it.
	if trunk.Busy != 20*time.Millisecond {
		t.Fatalf("trunk busy %v", trunk.Busy)
	}
	if trunk.MaxWait != 4799*time.Microsecond || trunk.MinWait != 0 {
		t.Fatalf("trunk waits %+v", trunk)
	}
	if trunk.MeanWait != 4799*time.Microsecond/2 {
		t.Fatalf("trunk mean wait %v", trunk.MeanWait)
	}
	if trunk.P99Wait <= 0 || trunk.P99Wait > trunk.MaxWait {
		t.Fatalf("trunk p99 %v", trunk.P99Wait)
	}
}

func TestP2Quantile(t *testing.T) {
	// Against a known distribution: 0..9999 in order, p99 ≈ 9900.
	var q p2Quantile
	for i := 0; i < 10000; i++ {
		q.observe(0.99, float64(i))
	}
	got := q.estimate()
	if got < 9700 || got > 9999 {
		t.Fatalf("p99 estimate %v of 0..9999", got)
	}
	q.observe(0.99, -1) // a new minimum moves only the lowest marker
	if q.q[0] != -1 || q.estimate() != got {
		t.Fatalf("after a new minimum: markers %v, estimate %v, want %v", q.q, q.estimate(), got)
	}
	// Small samples are exact nearest-rank.
	var s p2Quantile
	for _, x := range []float64{5, 1, 3} {
		s.observe(0.5, x)
	}
	if got := s.estimate(); got != 3 {
		t.Fatalf("small-sample median %v", got)
	}
	var lo p2Quantile // a rank below the first sample is the first sample
	lo.observe(0.1, 7)
	if got := lo.estimate(); got != 7 {
		t.Fatalf("one-sample p10 %v", got)
	}
	var z p2Quantile
	if got := z.estimate(); got != 0 {
		t.Fatalf("empty estimate %v", got)
	}
}

func TestTieredTransport(t *testing.T) {
	// Frame coalescing over a multi-hop route: messages from cluster 1 to
	// cluster 3 coalesce at gateway 1, and the frames hop store-and-forward
	// across the trunk with in-order reassembly at gateway 3.
	par := testParams()
	par.MaxFrameBytes = 4096
	par.CoalesceWindow = 100 * time.Microsecond
	e, n := tieredTestNet(t, par, 2)
	if n.xp == nil {
		t.Fatal("transport off")
	}
	var got []int
	n.SetHandler(6, func(m Msg) { got = append(got, m.Payload.(int)) })
	for i := 0; i < 20; i++ {
		n.Send(Msg{From: 2, To: 6, Kind: KindData, Size: 300, Payload: i})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("delivered %d of 20", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
	st := n.Stats()
	if st.WANFrames().Msgs == 0 || st.FramedMsgs() != 20 {
		t.Fatalf("frame stats %v", st)
	}
	if st.WANFrames().Msgs >= 20 {
		t.Fatalf("no coalescing: %d frames for 20 msgs", st.WANFrames().Msgs)
	}
	// End-to-end frames are charged once in Stats but traverse two physical
	// links (leaf 1→0, trunk 0→2, leaf 2→3): per-hop wire accounting shows
	// the route's extra transmissions in the class reports.
	cr := n.ClassReports()
	var total int64
	for _, r := range cr {
		total += r.Frames
	}
	if want := 3 * st.WANFrames().Msgs; total != want {
		t.Fatalf("per-hop frames %d, want %d (%+v)", total, want, cr)
	}
}

func TestRouteWithoutLinkPanics(t *testing.T) {
	// A hop without a physical link is a routing bug and panics loudly.
	_, n := tieredTestNet(t, testParams(), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for undeclared link")
		}
	}()
	n.linkIndex(1, 3)
}
