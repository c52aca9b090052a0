package netsim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/rng"
	"albatross/internal/sim"
)

// transportParams enables coalescing and striping on top of the round-number
// test parameters.
func transportParams() cluster.Params {
	p := testParams()
	p.MaxFrameBytes = 4000
	p.CoalesceWindow = 200 * time.Microsecond
	p.WANStreams = 2
	return p
}

func buildWith(clusters, npc int, par cluster.Params) (*sim.Engine, *testNet) {
	e := sim.NewEngine()
	return e, collect(New(e, cluster.Topology{Clusters: clusters, NodesPerCluster: npc}, par))
}

// TestCoalescedSingleMessageDelivery pins the exact timing of a lone framed
// message: it waits the full CoalesceWindow for companions that never come,
// then pays the usual WAN path as a one-message frame.
func TestCoalescedSingleMessageDelivery(t *testing.T) {
	par := testParams()
	par.CoalesceWindow = 200 * time.Microsecond
	e, n := buildWith(2, 2, par)
	if n.xp == nil {
		t.Fatal("transport layer not active")
	}
	// FE: 100us ser + 50us lat + 1us ovh = 151us to the local gateway.
	// Coalescing: +200us window before the frame flushes.
	// WAN: 1000us ser + 1000us lat + 1us ovh = 2001us to the remote gateway.
	// FE: 100us ser + 50us lat + 1us ovh = 151us to the node.
	n.Send(Msg{From: 0, To: 2, Kind: KindData, Size: 1000})
	got := recvTime(t, e, n, 2)
	want := 151*time.Microsecond + 200*time.Microsecond + 2001*time.Microsecond + 151*time.Microsecond
	if got != want {
		t.Fatalf("coalesced delivery at %v, want %v", got, want)
	}
	s := n.Stats()
	if s.WANFrames().Msgs != 1 || s.WANFrames().Bytes != 1000 || s.FramedMsgs() != 1 {
		t.Fatalf("frame stats %+v / %d framed", s.WANFrames(), s.FramedMsgs())
	}
}

// TestCoalescingPacksBurst: a burst of small messages from several senders
// leaves as one frame — one WAN transmission instead of eight.
func TestCoalescingPacksBurst(t *testing.T) {
	par := testParams()
	par.CoalesceWindow = time.Millisecond
	e, n := buildWith(2, 4, par)
	for i := 0; i < 4; i++ {
		for j := 0; j < 2; j++ {
			n.Send(Msg{From: cluster.NodeID(i), To: cluster.NodeID(4 + i), Kind: KindData, Size: 100})
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 8; i++ {
		if got := n.Inbox(cluster.NodeID(i)).Len(); got != 2 {
			t.Fatalf("node %d got %d messages, want 2", i, got)
		}
	}
	s := n.Stats()
	if s.WANFrames().Msgs != 1 || s.FramedMsgs() != 8 {
		t.Fatalf("got %d frames / %d framed msgs, want 1 / 8", s.WANFrames().Msgs, s.FramedMsgs())
	}
	if pr := s.PackingRatio(); pr != 8 {
		t.Fatalf("packing ratio %v, want 8", pr)
	}
	reps := n.PipeReports()
	if len(reps) != 1 || reps[0].Frames != 1 || reps[0].Msgs != 8 || reps[0].Bytes != 800 {
		t.Fatalf("pipe reports %+v, want one pipe with 1 frame / 8 msgs / 800 bytes", reps)
	}
	if p := reps[0].Packing(); p != 8 {
		t.Fatalf("pipe packing %v, want 8", p)
	}
}

// TestFrameFiledTwicePanics: a frame reaches its reassembler at most once
// or is lost at most once, so a second filing of one number, whether the
// first was taken in order or is held behind a gap, is an invariant
// violation that names the pair and the number.
func TestFrameFiledTwicePanics(t *testing.T) {
	for _, seq := range []int64{0, 2} { // 0 is taken at once, 2 waits for 1
		_, n := buildWith(2, 2, transportParams())
		n.fileFrame(1, 0, seq, nil, 0)
		func() {
			defer func() {
				want := fmt.Sprintf("netsim: frame %d of pair 1->0 filed twice at its reassembler", seq)
				if r := recover(); r != want {
					t.Errorf("frame %d filed twice: panic %v, want %q", seq, r, want)
				}
			}()
			n.fileFrame(1, 0, seq, nil, 0)
		}()
	}
}

// TestMaxFrameBytesFlushesEarly: the size bound seals a frame before the
// window expires; the remainder leaves in a second, timer-flushed frame.
func TestMaxFrameBytesFlushesEarly(t *testing.T) {
	par := testParams()
	par.CoalesceWindow = 10 * time.Millisecond
	par.MaxFrameBytes = 1000
	e, n := buildWith(2, 4, par)
	// Four 400-byte messages reach the gateway at the same instant; the
	// third crosses the 1000-byte bound and seals a three-message frame,
	// the fourth starts a new frame that only the window timer flushes.
	for i := 0; i < 4; i++ {
		n.Send(Msg{From: cluster.NodeID(i), To: 4, Kind: KindData, Size: 400})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := n.Inbox(4).Len(); got != 4 {
		t.Fatalf("delivered %d messages, want 4", got)
	}
	s := n.Stats()
	if s.WANFrames().Msgs != 2 || s.FramedMsgs() != 4 || s.WANFrames().Bytes != 1600 {
		t.Fatalf("got %d frames / %d msgs / %d bytes, want 2 / 4 / 1600",
			s.WANFrames().Msgs, s.FramedMsgs(), s.WANFrames().Bytes)
	}
}

// TestStripingHoldsEarlyFrames pins in-order reassembly: a small frame on
// stream 1 overtakes a large frame on stream 0 across the WAN but must not
// overtake it at delivery.
func TestStripingHoldsEarlyFrames(t *testing.T) {
	par := testParams()
	par.WANStreams = 2 // striping only: frames coalesce per instant
	e, n := buildWith(2, 2, par)
	// Sends originate at the gateway (node 4) so enqueue times are exact.
	e.At(0, func() {
		n.Send(Msg{From: 4, To: 2, Kind: KindData, Size: 10000, Payload: "a"})
	})
	e.At(time.Microsecond, func() {
		n.Send(Msg{From: 4, To: 2, Kind: KindData, Size: 100, Payload: "b"})
	})
	var order []string
	var arrivals []time.Duration
	e.Go("r", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			order = append(order, n.Inbox(2).Get(p).(Msg).Payload.(string))
			arrivals = append(arrivals, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != "a" || order[1] != "b" {
		t.Fatalf("striping reordered delivery: %v", order)
	}
	// Frame a: flush 0, 10000us xmit + 1001us -> remote 11001us, FE 1000us
	// ser + 51us -> 12052us. Frame b crossed by 1102us but is held; it
	// unpacks when a's gap fills, serializing behind a on the gateway NIC:
	// 12011us + 51us = 12062us.
	wantA, wantB := 12052*time.Microsecond, 12062*time.Microsecond
	if arrivals[0] != wantA || arrivals[1] != wantB {
		t.Fatalf("arrivals %v, want [%v %v]", arrivals, wantA, wantB)
	}
	reps := n.PipeReports()
	if len(reps) != 2 || reps[0].Stream != 0 || reps[1].Stream != 1 {
		t.Fatalf("pipe reports %+v, want streams 0 and 1", reps)
	}
	if reps[0].Bytes != 10000 || reps[1].Bytes != 100 {
		t.Fatalf("stream loads %+v", reps)
	}
}

// TestStripingRoundRobin: consecutive frames cycle deterministically over
// the configured streams.
func TestStripingRoundRobin(t *testing.T) {
	par := testParams()
	par.WANStreams = 3
	e, n := buildWith(2, 2, par)
	for i := 0; i < 6; i++ {
		at := time.Duration(i) * 5 * time.Millisecond // far apart: one frame each
		e.At(at, func() {
			n.Send(Msg{From: 4, To: 2, Kind: KindData, Size: 100})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	reps := n.PipeReports()
	if len(reps) != 3 {
		t.Fatalf("got %d stream reports, want 3: %+v", len(reps), reps)
	}
	for k, r := range reps {
		if r.Stream != k || r.Frames != 2 || r.Msgs != 2 {
			t.Fatalf("stream %d report %+v, want 2 frames / 2 msgs", k, r)
		}
	}
}

// transportWorkload drives a deterministic mixed burst through a network and
// returns everything observable: elapsed, dispatched, stats and pipe loads.
func transportWorkload(t *testing.T, shards int) (time.Duration, uint64, Stats, []PipeReport) {
	t.Helper()
	root := sim.NewEngine()
	if shards > 0 {
		root.Shard(shards)
	}
	n := collect(New(root, cluster.Topology{Clusters: 2, NodesPerCluster: 3}, transportParams()))
	for c := 0; c < 2; c++ {
		c := c
		for i := 0; i < 3; i++ {
			src := cluster.NodeID(c*3 + i)
			dst := cluster.NodeID(((c*3 + i) + 3) % 6) // cross-cluster partner
			for k := 0; k < 5; k++ {
				size := 100 + 37*int(src) + 211*k
				at := time.Duration(k) * 300 * time.Microsecond
				n.EngineFor(c).At(at, func() {
					n.Send(Msg{From: src, To: dst, Kind: KindData, Size: size})
				})
			}
		}
	}
	if err := root.Run(); err != nil {
		t.Fatal(err)
	}
	elapsed, dispatched := root.Now(), root.Dispatched()
	stats := *n.Stats()
	reps := n.PipeReports()
	root.Shutdown()
	return elapsed, dispatched, stats, reps
}

// TestTransportDeterminism: three identical runs with coalescing + striping
// must report byte-identical results.
func TestTransportDeterminism(t *testing.T) {
	e1, d1, s1, r1 := transportWorkload(t, 0)
	for rep := 0; rep < 2; rep++ {
		e2, d2, s2, r2 := transportWorkload(t, 0)
		if e1 != e2 || d1 != d2 || s1 != s2 || !reflect.DeepEqual(r1, r2) {
			t.Fatalf("rep %d differs: %v/%d/%+v vs %v/%d/%+v", rep, e1, d1, s1, e2, d2, s2)
		}
	}
}

// TestTransportShardedMatchesSequential: the transport layer keeps all its
// state per-LP, so a sharded run must be byte-identical to the sequential
// one — same elapsed time, event count, merged stats and pipe loads.
func TestTransportShardedMatchesSequential(t *testing.T) {
	e1, d1, s1, r1 := transportWorkload(t, 0)
	e2, d2, s2, r2 := transportWorkload(t, 2)
	if e1 != e2 || d1 != d2 || s1 != s2 || !reflect.DeepEqual(r1, r2) {
		t.Fatalf("sharded transport diverges:\nsequential %v/%d/%+v %+v\nsharded    %v/%d/%+v %+v",
			e1, d1, s1, r1, e2, d2, s2, r2)
	}
}

// TestTransportShardedLookaheadGate: if an operator raises the lookahead
// beyond what the WAN paths guarantee, SetLookahead must refuse immediately,
// naming the LP pair whose route-derived floor would be overrun — not let
// the run start and fail at some later fence.
func TestTransportShardedLookaheadGate(t *testing.T) {
	root := sim.NewEngine()
	root.Shard(2)
	n := New(root, cluster.Topology{Clusters: 2, NodesPerCluster: 2}, transportParams())
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a route-floor panic from SetLookahead")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "route-derived lookahead floor") || !strings.Contains(msg, "LP pair") {
			t.Fatalf("unexpected panic %v", r)
		}
		root.Shutdown()
	}()
	root.SetLookahead(5 * time.Millisecond) // undercut by ~1ms WAN route floors
	_ = n                                   // unreachable
}

// TestFrameFaultsRuleOnWireUnits: fault policies see one KindFrame message
// per coalesced transmission, not the packed application messages.
func TestFrameFaultsRuleOnWireUnits(t *testing.T) {
	par := testParams()
	par.CoalesceWindow = time.Millisecond
	e, n := buildWith(2, 2, par)
	var wire []Msg
	n.SetFaultPolicy(&testPolicy{
		transit: func(_ time.Duration, _, _ int, m Msg) bool {
			wire = append(wire, m)
			return false
		},
	})
	n.Send(Msg{From: 0, To: 2, Kind: KindData, Size: 300})
	n.Send(Msg{From: 1, To: 2, Kind: KindData, Size: 500})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(wire) != 1 {
		t.Fatalf("policy consulted %d times, want once per frame", len(wire))
	}
	if wire[0].Kind != KindFrame || wire[0].Size != 800 {
		t.Fatalf("wire unit %v, want frame of 800 bytes", wire[0])
	}
	if wire[0].From != 4 || wire[0].To != 5 {
		t.Fatalf("wire unit endpoints %v, want gateway 4 > gateway 5", wire[0])
	}
}

// TestFrameDropLosesWholeFrameWithoutWedging: a dropped frame consumes no
// sequence number, so later frames still deliver.
func TestFrameDropLosesWholeFrameWithoutWedging(t *testing.T) {
	par := testParams()
	par.CoalesceWindow = 100 * time.Microsecond
	e, n := buildWith(2, 2, par)
	first := true
	n.SetFaultPolicy(&testPolicy{
		transit: func(time.Duration, int, int, Msg) bool {
			drop := first
			first = false
			return drop
		},
	})
	n.Send(Msg{From: 0, To: 2, Kind: KindData, Size: 100, Payload: "lost"})
	e.At(10*time.Millisecond, func() {
		n.Send(Msg{From: 0, To: 2, Kind: KindData, Size: 100, Payload: "ok"})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := n.Inbox(2).Len(); got != 1 {
		t.Fatalf("%d messages delivered, want only the post-drop one", got)
	}
}

// TestFrameRemoteCrashResyncsSequence: a frame lost to a crashed remote
// gateway loses its payload but still consumes its sequence number, so the
// stream does not wedge behind the loss.
func TestFrameRemoteCrashResyncsSequence(t *testing.T) {
	par := testParams()
	par.CoalesceWindow = 100 * time.Microsecond
	e, n := buildWith(2, 2, par)
	n.SetFaultPolicy(&testPolicy{
		gwDown: func(at time.Duration, c int, _ Msg) bool {
			return c == 1 && at < 5*time.Millisecond
		},
	})
	n.Send(Msg{From: 0, To: 2, Kind: KindData, Size: 100, Payload: "lost"})
	e.At(10*time.Millisecond, func() {
		n.Send(Msg{From: 0, To: 2, Kind: KindData, Size: 100, Payload: "ok"})
	})
	var got []string
	e.Go("r", func(p *sim.Proc) {
		got = append(got, n.Inbox(2).Get(p).(Msg).Payload.(string))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "ok" {
		t.Fatalf("deliveries %v, want just the post-crash message", got)
	}
}

// TestFrameLocalCrashLosesFrame: a crashed local gateway consumes the frame
// before the WAN; nothing crosses and later traffic is unaffected.
func TestFrameLocalCrashLosesFrame(t *testing.T) {
	par := testParams()
	par.CoalesceWindow = 100 * time.Microsecond
	e, n := buildWith(2, 2, par)
	n.SetFaultPolicy(&testPolicy{
		gwDown: func(at time.Duration, c int, _ Msg) bool {
			return c == 0 && at < 5*time.Millisecond
		},
	})
	n.Send(Msg{From: 0, To: 2, Kind: KindData, Size: 100})
	e.At(10*time.Millisecond, func() {
		n.Send(Msg{From: 0, To: 2, Kind: KindData, Size: 100})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := n.Inbox(2).Len(); got != 1 {
		t.Fatalf("%d deliveries, want 1", got)
	}
	s := n.Stats()
	if s.WANFrames().Msgs != 1 {
		t.Fatalf("%d frames crossed the WAN, want 1 (the crash consumed the other)", s.WANFrames().Msgs)
	}
}

// TestFIFOPerPathTransport: the per-path FIFO guarantee survives coalescing
// and striping, whatever the message sizes.
func TestFIFOPerPathTransport(t *testing.T) {
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		par := transportParams()
		e, n := buildWith(2, 2, par)
		var dst cluster.NodeID = 3
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

// TestConservationTransport: coalescing loses and duplicates nothing under
// random traffic (every armed frame eventually flushes).
func TestConservationTransport(t *testing.T) {
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		par := transportParams()
		e, n := buildWith(3, 3, par)
		total := 50
		sent := make(map[int]int)
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

// TestMaxQueueingExactBurst pins pipe.maxWait arithmetic: k same-size
// messages entering an idle pipe together queue for exactly (k-1)
// transmission times at the worst.
func TestMaxQueueingExactBurst(t *testing.T) {
	e, n := build(2, 2)
	// Sends originate at the gateway (node 4), so all three hit the pipe at
	// t=0; each 1000-byte transmission takes 1ms.
	for i := 0; i < 3; i++ {
		n.Send(Msg{From: 4, To: 2, Kind: KindData, Size: 1000})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	reps := n.PipeReports()
	if len(reps) != 1 {
		t.Fatalf("got %d pipe reports, want 1", len(reps))
	}
	if want := 2 * time.Millisecond; reps[0].MaxQueueing != want {
		t.Fatalf("max queueing %v, want exactly %v", reps[0].MaxQueueing, want)
	}
	if reps[0].Busy != 3*time.Millisecond {
		t.Fatalf("busy %v, want 3ms", reps[0].Busy)
	}
}

// TestGatewayCostForwardingHorizonExact pins the gwFree serialization
// arithmetic at both gateways: three zero-byte messages arriving together
// are forwarded 500us apart by each gateway in turn.
func TestGatewayCostForwardingHorizonExact(t *testing.T) {
	e := sim.NewEngine()
	par := testParams()
	par.GatewayCost = 500 * time.Microsecond
	n := collect(New(e, cluster.Topology{Clusters: 2, NodesPerCluster: 3}, par))
	// Zero-size messages: no serialization anywhere, only latencies and the
	// forwarding cost. Each reaches the local gateway at 51us.
	for i := 0; i < 3; i++ {
		n.Send(Msg{From: cluster.NodeID(i), To: 3, Kind: KindData, Size: 0})
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
	// Message i leaves the local gateway at 51us + (i+1)*500us, crosses the
	// WAN (+1001us), then queues on the remote gateway's horizon: the first
	// arrival sets gwFree to 2052us, each later message lands exactly when
	// the previous forwarding slot ends, +51us Fast Ethernet to the node.
	want := []time.Duration{2103 * time.Microsecond, 2603 * time.Microsecond, 3103 * time.Microsecond}
	if !reflect.DeepEqual(arrivals, want) {
		t.Fatalf("arrivals %v, want %v", arrivals, want)
	}
}
