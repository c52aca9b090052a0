package netsim

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/rng"
	"albatross/internal/sim"
)

// testParams uses round numbers so expected delivery times are exact.
func testParams() cluster.Params {
	return cluster.Params{
		LANLatency:       10 * time.Microsecond,
		LANBandwidth:     1e8, // 100 MB/s -> 10 ns/byte
		LANBcastLatency:  20 * time.Microsecond,
		FELatency:        50 * time.Microsecond,
		FEBandwidth:      1e7,
		WANLatency:       1000 * time.Microsecond,
		WANBandwidth:     1e6, // 1 MB/s -> 1 us/byte
		SoftwareOverhead: 1 * time.Microsecond,
	}
}

func build(clusters, npc int) (*sim.Engine, *testNet) {
	e := sim.NewEngine()
	return e, collect(New(e, cluster.Topology{Clusters: clusters, NodesPerCluster: npc}, testParams()))
}

// testNet is a network whose every node queues its deliveries in a mailbox
// of its own: delivery is handler-only, so tests that receive from processes
// or count arrivals install collecting handlers.
type testNet struct {
	*Network
	inbox []*sim.Mailbox
}

// collect installs a collecting handler on every node of n.
func collect(n *Network) *testNet {
	tn := &testNet{Network: n, inbox: make([]*sim.Mailbox, len(n.nodes))}
	for i := range tn.inbox {
		mb := sim.NewMailbox(n.EngineFor(n.clusterOf[i]), "inbox")
		n.SetHandler(cluster.NodeID(i), func(m Msg) { mb.Put(m) })
		tn.inbox[i] = mb
	}
	return tn
}

// Inbox returns the mailbox node id's deliveries queue in.
func (tn *testNet) Inbox(id cluster.NodeID) *sim.Mailbox { return tn.inbox[id] }

func recvTime(t *testing.T, e *sim.Engine, n *testNet, to cluster.NodeID) time.Duration {
	t.Helper()
	var at time.Duration = -1
	e.Go("recv", func(p *sim.Proc) {
		n.Inbox(to).Get(p)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at < 0 {
		t.Fatal("message not delivered")
	}
	return at
}

func TestLANDeliveryTime(t *testing.T) {
	e, n := build(1, 4)
	// 1000 bytes at 100 MB/s = 10 us serialization, + 10 us latency + 2 us overhead.
	n.Send(Msg{From: 0, To: 1, Kind: KindData, Size: 1000})
	got := recvTime(t, e, n, 1)
	want := 10*time.Microsecond + 10*time.Microsecond + 2*time.Microsecond
	if got != want {
		t.Fatalf("LAN delivery at %v, want %v", got, want)
	}
}

func TestLoopbackDelivery(t *testing.T) {
	e, n := build(1, 2)
	n.Send(Msg{From: 0, To: 0, Kind: KindData, Size: 500})
	got := recvTime(t, e, n, 0)
	if got != time.Microsecond {
		t.Fatalf("loopback at %v, want 1us overhead", got)
	}
	if n.Stats().TotalInter().Msgs != 0 {
		t.Fatal("loopback counted as intercluster")
	}
}

func TestWANDeliveryTime(t *testing.T) {
	e, n := build(2, 2)
	// Node 0 (cluster 0) -> node 2 (cluster 1), 1000 bytes.
	// FE: 100us ser + 50us lat + 1us ovh = 151us to local gateway.
	// WAN: 1000us ser + 1000us lat + 1us ovh = 2001us to remote gateway.
	// FE: 100us ser + 50us lat + 1us ovh = 151us to node.
	n.Send(Msg{From: 0, To: 2, Kind: KindData, Size: 1000})
	got := recvTime(t, e, n, 2)
	want := 151*time.Microsecond + 2001*time.Microsecond + 151*time.Microsecond
	if got != want {
		t.Fatalf("WAN delivery at %v, want %v", got, want)
	}
}

func TestWANPipeSaturation(t *testing.T) {
	// Two large messages sent together must serialize on the WAN pipe.
	e, n := build(2, 2)
	n.Send(Msg{From: 0, To: 2, Kind: KindData, Size: 10000})
	n.Send(Msg{From: 1, To: 2, Kind: KindData, Size: 10000})
	var arrivals []time.Duration
	e.Go("recv", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			n.Inbox(2).Get(p)
			arrivals = append(arrivals, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	gap := arrivals[1] - arrivals[0]
	// Second message waits a full 10 ms WAN serialization behind the first.
	if gap < 9*time.Millisecond {
		t.Fatalf("no pipe saturation: gap %v", gap)
	}
}

func TestSenderNICSerialization(t *testing.T) {
	// Two LAN messages from one sender serialize on its NIC.
	e, n := build(1, 3)
	n.Send(Msg{From: 0, To: 1, Kind: KindData, Size: 100000}) // 1 ms serialization
	n.Send(Msg{From: 0, To: 2, Kind: KindData, Size: 1000})
	got := recvTime(t, e, n, 2)
	// Second message starts serializing at 1 ms.
	want := time.Millisecond + 10*time.Microsecond + 12*time.Microsecond
	if got != want {
		t.Fatalf("second send at %v, want %v", got, want)
	}
}

func TestIndependentSendersDoNotSerialize(t *testing.T) {
	e, n := build(1, 3)
	n.Send(Msg{From: 0, To: 2, Kind: KindData, Size: 100000})
	n.Send(Msg{From: 1, To: 2, Kind: KindData, Size: 100000})
	var arrivals []time.Duration
	e.Go("recv", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			n.Inbox(2).Get(p)
			arrivals = append(arrivals, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if arrivals[0] != arrivals[1] {
		t.Fatalf("independent senders serialized: %v", arrivals)
	}
}

func TestBcastLocalReachesWholeClusterOnly(t *testing.T) {
	e, n := build(2, 3)
	n.BcastLocal(0, KindBcast, 100, "hi")
	got := make(map[cluster.NodeID]time.Duration)
	for _, id := range []cluster.NodeID{0, 1, 2} {
		id := id
		e.Go("recv", func(p *sim.Proc) {
			n.Inbox(id).Get(p)
			got[id] = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("deliveries %v", got)
	}
	if got[0] != got[1] || got[1] != got[2] {
		t.Fatalf("broadcast skew: %v", got)
	}
	for _, id := range []cluster.NodeID{3, 4, 5} {
		if n.Inbox(id).Len() != 0 {
			t.Fatalf("broadcast leaked to other cluster (node %d)", id)
		}
	}
}

func TestStatsSplitIntraInter(t *testing.T) {
	e, n := build(2, 2)
	n.Send(Msg{From: 0, To: 1, Kind: KindRPCReq, Size: 100}) // intra
	n.Send(Msg{From: 0, To: 3, Kind: KindRPCReq, Size: 200}) // inter
	n.Send(Msg{From: 3, To: 0, Kind: KindRPCRep, Size: 50})  // inter
	drain := func(id cluster.NodeID, k int) {
		e.Go("r", func(p *sim.Proc) {
			for i := 0; i < k; i++ {
				n.Inbox(id).Get(p)
			}
		})
	}
	drain(1, 1)
	drain(3, 1)
	drain(0, 1)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	s := n.Stats()
	if s.Intra(KindRPCReq).Msgs != 1 || s.Intra(KindRPCReq).Bytes != 100 {
		t.Fatalf("intra rpc %+v", s.Intra(KindRPCReq))
	}
	if s.Inter(KindRPCReq).Msgs != 1 || s.Inter(KindRPCReq).Bytes != 200 {
		t.Fatalf("inter rpc %+v", s.Inter(KindRPCReq))
	}
	rpc := s.InterRPC()
	if rpc.Msgs != 1 || rpc.Bytes != 250 {
		t.Fatalf("InterRPC %+v", rpc)
	}
}

// TestFIFOPerPath checks the end-to-end FIFO property: messages from one
// sender to one receiver arrive in send order, whatever their sizes, both
// within a cluster and across the WAN.
func TestFIFOPerPath(t *testing.T) {
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		e, n := build(2, 2)
		var dst cluster.NodeID = 1
		if r.Intn(2) == 0 {
			dst = 3 // cross-cluster path
		}
		const k = 20
		for i := 0; i < k; i++ {
			n.Send(Msg{From: 0, To: dst, Kind: KindData, Size: 1 + r.Intn(5000), Payload: i})
		}
		ok := true
		e.Go("r", func(p *sim.Proc) {
			for i := 0; i < k; i++ {
				m := n.Inbox(dst).Get(p).(Msg)
				if m.Payload.(int) != i {
					ok = false
				}
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestConservation checks no message is lost or duplicated under random
// traffic between random nodes.
func TestConservation(t *testing.T) {
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		e, n := build(3, 3)
		total := 50
		sent := make(map[int]int) // per destination
		for i := 0; i < total; i++ {
			from := cluster.NodeID(r.Intn(9))
			to := cluster.NodeID(r.Intn(9))
			n.Send(Msg{From: from, To: to, Kind: KindData, Size: 1 + r.Intn(1000)})
			sent[int(to)]++
		}
		if err := e.Run(); err != nil {
			return false
		}
		for id, want := range sent {
			if n.Inbox(cluster.NodeID(id)).Len() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHandlerDelivery(t *testing.T) {
	e, n := build(1, 2)
	got := 0
	n.SetHandler(1, func(m Msg) { got = m.Size })
	n.Send(Msg{From: 0, To: 1, Kind: KindData, Size: 77})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 77 {
		t.Fatalf("handler got %d", got)
	}
}

// TestDeliveryWithoutHandlerPanics: delivery is handler-only, so a message
// reaching a node nobody listens on is an invariant violation naming the node.
func TestDeliveryWithoutHandlerPanics(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, cluster.Topology{Clusters: 1, NodesPerCluster: 2}, testParams())
	n.Send(Msg{From: 0, To: 1, Kind: KindData, Size: 8})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "node 1, which has no handler") {
			t.Fatalf("panic %q does not name the handlerless node", msg)
		}
	}()
	_ = e.Run()
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindRPCReq: "rpc-req", KindRPCRep: "rpc-rep",
		KindBcast: "bcast", KindData: "data", KindControl: "control",
		KindFrame: "frame",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d -> %q", k, k.String())
		}
	}
}

func TestPipeReports(t *testing.T) {
	e, n := build(2, 2)
	n.Send(Msg{From: 0, To: 2, Kind: KindData, Size: 10000})
	n.Send(Msg{From: 1, To: 3, Kind: KindData, Size: 10000})
	n.Send(Msg{From: 2, To: 0, Kind: KindData, Size: 500})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	reps := n.PipeReports()
	if len(reps) != 2 {
		t.Fatalf("got %d pipe reports, want 2", len(reps))
	}
	fwd := reps[0] // 0 -> 1
	if fwd.From != 0 || fwd.To != 1 || fwd.Msgs != 2 || fwd.Bytes != 20000 {
		t.Fatalf("forward pipe report %+v", fwd)
	}
	// Two 10 ms transmissions, the second queued behind the first.
	if fwd.Busy != 20*time.Millisecond {
		t.Fatalf("busy %v, want 20ms", fwd.Busy)
	}
	if fwd.MaxQueueing < 9*time.Millisecond {
		t.Fatalf("max queueing %v, want ~10ms", fwd.MaxQueueing)
	}
	back := reps[1]
	if back.From != 1 || back.To != 0 || back.Msgs != 1 {
		t.Fatalf("backward pipe report %+v", back)
	}
	if u := fwd.Utilization(100 * time.Millisecond); u < 0.19 || u > 0.21 {
		t.Fatalf("utilization %v, want 0.2", u)
	}
}

func TestGatewayCostSerializesForwarding(t *testing.T) {
	e := sim.NewEngine()
	par := testParams()
	par.GatewayCost = 500 * time.Microsecond
	n := collect(New(e, cluster.Topology{Clusters: 2, NodesPerCluster: 3}, par))
	// Three tiny messages from distinct senders arrive at the gateway
	// together; the gateway forwards them one at a time.
	for i := 0; i < 3; i++ {
		n.Send(Msg{From: cluster.NodeID(i), To: 3, Kind: KindData, Size: 1})
	}
	var arrivals []time.Duration
	e.Go("r", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			n.Inbox(3).Get(p)
			arrivals = append(arrivals, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if gap := arrivals[2] - arrivals[0]; gap < 900*time.Microsecond {
		t.Fatalf("gateway did not serialize: gap %v", gap)
	}
}

func TestWANProfileScalesDelivery(t *testing.T) {
	delivery := func(profile WANProfile) time.Duration {
		e := sim.NewEngine()
		n := collect(New(e, cluster.Topology{Clusters: 2, NodesPerCluster: 2}, testParams()))
		n.SetWANProfile(profile)
		n.Send(Msg{From: 0, To: 2, Kind: KindData, Size: 1000})
		var at time.Duration
		e.Go("r", func(p *sim.Proc) {
			n.Inbox(2).Get(p)
			at = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	base := delivery(nil)
	slow := delivery(func(time.Duration) (float64, float64) { return 3, 0.5 })
	fast := delivery(func(time.Duration) (float64, float64) { return 0.5, 4 })
	if slow <= base || fast >= base {
		t.Fatalf("profile not applied: base=%v slow=%v fast=%v", base, slow, fast)
	}
	// Exact check: 3x latency adds 2ms, halved bandwidth adds 1ms serialization.
	want := base + 2*time.Millisecond + time.Millisecond
	if slow != want {
		t.Fatalf("slow delivery %v, want %v", slow, want)
	}
}

// TestWANProfileSampledAtTransmissionStart pins the instant a time-varying
// profile is evaluated: a message queued behind earlier pipe traffic starts
// transmitting at the pipe's free time, so a step-function profile that
// flips between queueing and transmission must apply its post-step quality.
func TestWANProfileSampledAtTransmissionStart(t *testing.T) {
	e := sim.NewEngine()
	n := collect(New(e, cluster.Topology{Clusters: 2, NodesPerCluster: 2}, testParams()))
	// Before 500us: nominal quality. From 500us: 3x latency, half bandwidth.
	n.SetWANProfile(func(at time.Duration) (float64, float64) {
		if at < 500*time.Microsecond {
			return 1, 1
		}
		return 3, 0.5
	})
	// Both messages are sent at t=0. Msg A (1000 B) reaches the local
	// gateway at 151us and transmits at nominal quality, holding the pipe
	// until 1151us. Msg B (500 B) joins the queue at 201us — before the
	// step — but its transmission starts at 1151us, after it.
	n.Send(Msg{From: 0, To: 2, Kind: KindData, Size: 1000})
	n.Send(Msg{From: 0, To: 2, Kind: KindData, Size: 500})
	var arrivals []time.Duration
	e.Go("r", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			n.Inbox(2).Get(p)
			arrivals = append(arrivals, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// A: FE 151us + WAN (1000us xmit + 1000us lat + 1us) + FE 151us.
	wantA := 2303 * time.Microsecond
	// B: starts at 1151us under the degraded profile: 500 B at 0.5 MB/s =
	// 1000us xmit, 3000us latency -> remote gateway at 5152us, FE leg
	// (50us ser + 50us lat + 1us) -> 5253us. Sampling at queue time (the
	// old bug) would deliver at 2753us instead.
	wantB := 5253 * time.Microsecond
	if len(arrivals) != 2 || arrivals[0] != wantA || arrivals[1] != wantB {
		t.Fatalf("arrivals %v, want [%v %v]", arrivals, wantA, wantB)
	}
}

// TestTapSeesLoopbackAndLocalBroadcast: the tap observes every send as it
// leaves, a loopback and a local broadcast included, as intracluster traffic.
func TestTapSeesLoopbackAndLocalBroadcast(t *testing.T) {
	e, n := build(1, 4)
	n.SetFaultPolicy(nil) // no policy: the fault hooks stay off
	var seen []string
	n.SetTap(func(at time.Duration, m Msg, inter bool) {
		seen = append(seen, fmt.Sprintf("%v %v inter=%v", at, m, inter))
	})
	n.Send(Msg{From: 1, To: 1, Kind: KindData, Size: 8})
	n.BcastLocal(2, KindBcast, 16, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"0s data 1>1 8B inter=false", "0s bcast 2>2 16B inter=false"}
	if !slices.Equal(seen, want) {
		t.Fatalf("tap saw %q, want %q", seen, want)
	}
}

// TestNewRejectsUnbuildablePlatform: New panics on a platform its callers
// should have validated, and on more WAN streams than a wire unit can name.
func TestNewRejectsUnbuildablePlatform(t *testing.T) {
	streams := testParams()
	streams.WANStreams = math.MaxInt16 + 1
	for _, tc := range []struct {
		topo cluster.Topology
		par  cluster.Params
		want string
	}{
		{cluster.Topology{NodesPerCluster: 2}, testParams(), "cluster: Clusters must be positive, got 0"},
		{cluster.Topology{Clusters: 2, NodesPerCluster: 2}, streams, "netsim: WANStreams 32768 exceeds 32767"},
	} {
		func() {
			defer func() {
				if r := fmt.Sprint(recover()); r != tc.want {
					t.Errorf("panic %q, want %q", r, tc.want)
				}
			}()
			New(sim.NewEngine(), tc.topo, tc.par)
		}()
	}
	if s := Kind(255).String(); s != "invalid" {
		t.Errorf("Kind(255) is %q", s)
	}
	if u := (PipeReport{Busy: time.Second}).Utilization(0); u != 0 {
		t.Errorf("utilization over no elapsed time: %v", u)
	}
}
