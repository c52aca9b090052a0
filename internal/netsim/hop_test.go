package netsim

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"albatross/internal/cluster"
	"albatross/internal/sim"
)

// A WAN unit crossing a pipe waits in the pipe's lane as a hop: the record,
// the destination cluster and the byte count. The stages take the unit's
// position from the pipe the lane belongs to, so the record's cur is stale
// while the unit waits, and is read only by the unit's own event closure.
// These tests pin the layout, the size bound that keeps the hop's byte count
// exact, and the position at every exit where a unit leaves a lane.

func TestWireUnitLayout(t *testing.T) {
	if got := unsafe.Sizeof(wireUnit{}); got > 128 {
		t.Errorf("wireUnit is %d bytes, want at most 128 (one size class)", got)
	}
	// Msg.Tag and Msg.Seq sit in the padding after Kind: header words cost no
	// bytes.
	if got := unsafe.Sizeof(Msg{}); got != 48 {
		t.Errorf("Msg is %d bytes, want 48", got)
	}
	// A lane's ring slot is the hop plus its event's at and seq.
	if got := unsafe.Sizeof(hop{}) + 16; got > 32 {
		t.Errorf("a hop's lane slot is %d bytes, want at most 32", got)
	}
}

// TestSendRejectsSizeOutOfRange: a negative size, or one past 32 bits, panics
// where the message enters netsim, naming it; on LAN, WAN and loopback sends
// and on a local broadcast. The largest accepted size crosses a three-hop
// route exactly.
func TestSendRejectsSizeOutOfRange(t *testing.T) {
	sizes := []int64{-1 << 20, -1, maxMsgSize + 1}
	for _, size := range sizes {
		if int64(int(size)) != size {
			continue // past int on this platform: not expressible
		}
		for _, to := range []cluster.NodeID{0, 1, 2} { // loopback, LAN, WAN
			_, n := build(2, 2)
			m := Msg{From: 0, To: to, Kind: KindData, Size: int(size)}
			checkPanics(t, m.String(), func() { n.Send(m) })
		}
		_, n := build(2, 2)
		checkPanics(t, fmt.Sprintf("%d", size), func() { n.BcastLocal(0, KindBcast, int(size), nil) })
	}

	e, n := tieredTestNet(t, testParams(), 0)
	n.Send(Msg{From: 2, To: 6, Kind: KindData, Size: maxMsgSize})
	got := recvTime(t, e, n, 6)
	fe := 2 * (bwTime(maxMsgSize, 1e7) + 51*time.Microsecond)
	leaf := 2 * (bwTime(maxMsgSize, 2e6) + 201*time.Microsecond)
	trunk := bwTime(maxMsgSize, 1e6) + 1001*time.Microsecond
	if want := fe + leaf + trunk; got != want {
		t.Errorf("a %d B message arrived at %v, want %v", maxMsgSize, got, want)
	}
	for _, r := range n.PipeReports() {
		if r.Bytes != maxMsgSize {
			t.Errorf("pipe %d→%d carried %d B, want %d", r.From, r.To, r.Bytes, maxMsgSize)
		}
	}
}

func checkPanics(t *testing.T, want string, f func()) {
	t.Helper()
	got := func() (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}()
	if s := fmt.Sprint(got); got == nil || !strings.Contains(s, want) || !strings.Contains(s, "outside [0, 2147483647]") {
		t.Errorf("recovered %v, want a size panic naming %q", got, want)
	}
}

type hopDelivery struct {
	Payload int
	At      time.Duration
}

// hopRun is everything a position-invariant plan observes.
type hopRun struct {
	Got        []hopDelivery // at node 6, in handler order
	Parked     [][]int       // per cluster: units parked there at each probe
	Next       []uint64      // framed: cluster 3's reassembly point for cluster 1's frames at each probe
	Held       int64
	Stats      Stats
	Pipes      []PipeReport
	Elapsed    time.Duration
	Dispatched uint64
}

// runHopPlan sends one 1,000 B message per entry of sends (payload = index)
// from node 2 to node 6 on the tiered platform, whose route 1→0→2→3 makes
// clusters 0 and 2 intermediate gateways, under policy, on the sequential
// engine (shards 0) or on LPs. At each probe instant every cluster records,
// on its own LP, how many units are parked at its gateway.
func runHopPlan(t *testing.T, shards int, framed bool, policy *testPolicy, sends, probes []time.Duration) hopRun {
	t.Helper()
	par := testParams()
	if framed {
		par.MaxFrameBytes = 1 // every message its own frame, sealed on arrival
	}
	root := sim.NewEngine()
	if shards > 0 {
		root.Shard(shards)
	}
	root.SetDeadline(time.Second) // every plan ends by 15 ms; a unit sent round in circles does not
	n := New(root, tieredTopology(t, 0), par)
	n.SetFaultPolicy(policy)
	var r hopRun
	n.SetHandler(6, func(m Msg) {
		r.Got = append(r.Got, hopDelivery{m.Payload.(int), n.EngineFor(3).Now()})
	})
	for i, at := range sends {
		n.EngineFor(1).At(at, func() {
			n.Send(Msg{From: 2, To: 6, Kind: KindData, Size: 1000, Payload: i})
		})
	}
	r.Parked = make([][]int, 4)
	for c := range r.Parked {
		for _, at := range probes {
			n.EngineFor(c).At(at, func() {
				k := 0
				if n.hold != nil {
					k = n.hold[c].parked
				}
				r.Parked[c] = append(r.Parked[c], k)
				if c == 3 && framed {
					r.Next = append(r.Next, n.ingressFor(1, 3).Next())
				}
			})
		}
	}
	if err := root.Run(); err != nil {
		t.Fatal(err)
	}
	r.Held, r.Stats, r.Pipes, r.Elapsed, r.Dispatched = n.Stats().HeldMsgs(), *n.Stats(), n.PipeReports(), root.Now(), root.Dispatched()
	root.Shutdown()
	return r
}

// TestHopPosition runs one plan per exit where a unit leaves a lane with its
// record's position stale, each checked against hand-computed instants
// (TestTieredDeliveryTime's figures: FE 151 µs, leaf 701 µs, trunk 2,001 µs
// for 1,000 B) and then on two LPs, where every lane insert leaves the ring,
// against the sequential run.
func TestHopPosition(t *testing.T) {
	const us = time.Microsecond
	cases := []struct {
		name   string
		framed bool
		policy *testPolicy
		sends  []time.Duration
		probes []time.Duration
		check  func(t *testing.T, r hopRun)
	}{{
		// The unit reaches gateway 0 at 852 µs with 0→2 cut until 3 ms: it
		// parks there, and the retry at 852 µs + 10 ms sends it on from 0.
		name:   "park at an intermediate gateway",
		policy: &testPolicy{downs: downPair(0, 2, 0, 3*time.Millisecond)},
		sends:  []time.Duration{0},
		probes: []time.Duration{2 * time.Millisecond},
		check: func(t *testing.T, r hopRun) {
			if want := [][]int{{1}, {0}, {0}, {0}}; !reflect.DeepEqual(r.Parked, want) {
				t.Errorf("parked per cluster %v, want %v", r.Parked, want)
			}
			if r.Held != 1 {
				t.Errorf("%d messages held, want 1", r.Held)
			}
			if want := []hopDelivery{{0, (852 + 10000 + 2001 + 701 + 151) * us}}; !reflect.DeepEqual(r.Got, want) {
				t.Errorf("deliveries %v, want %v", r.Got, want)
			}
		},
	}, {
		// Frame 0 reaches crashed gateway 2 at 2,853 µs: its tombstone lands
		// at cluster 3 routeFloor[2][3] = 201 µs later. Frame 1 passes after
		// the crash and is not held behind the gap.
		name:   "crash at an intermediate gateway, framed",
		framed: true,
		policy: &testPolicy{gwDown: func(at time.Duration, c int, _ Msg) bool {
			return c == 2 && at < 5*time.Millisecond
		}},
		sends:  []time.Duration{0, 6 * time.Millisecond},
		probes: []time.Duration{3054*us - 1, 3054*us + 1},
		check: func(t *testing.T, r hopRun) {
			if want := []uint64{0, 1}; !reflect.DeepEqual(r.Next, want) {
				t.Errorf("reassembly point around 3,054 µs %v, want %v", r.Next, want)
			}
			if want := []hopDelivery{{1, 6*time.Millisecond + 3705*us}}; !reflect.DeepEqual(r.Got, want) {
				t.Errorf("deliveries %v, want %v", r.Got, want)
			}
		},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seq := runHopPlan(t, 0, c.framed, c.policy, c.sends, c.probes)
			c.check(t, seq)
			if sharded := runHopPlan(t, 2, c.framed, c.policy, c.sends, c.probes); !reflect.DeepEqual(seq, sharded) {
				t.Errorf("two LPs differ from the sequential run:\nsequential %+v\nsharded    %+v", seq, sharded)
			}
		})
	}
}

// BenchmarkWANDeepHop is the WAN rung at the depth a saturated multi-hop
// platform produces: 16 k or 64 k units in flight on a tiered platform (four
// backbone roots on a ring, three leaves under each), every leaf gateway
// answering each delivery with a unit to the leaf across the ring, four hops
// away. Every unit in flight waits in a pipe's lane, so a hop's first touch
// of its unit is a cold one, as on grid64. One op is one delivered unit; it
// reports wall nanoseconds per hop the pipes carried.
func BenchmarkWANDeepHop(b *testing.B) {
	for _, depth := range []int{16 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("units=%dk", depth>>10), func(b *testing.B) {
			bld := cluster.NewBuilder()
			roots := bld.Roots(4, cluster.Ring, bld.Class("backbone", 20*time.Millisecond, cluster.Mbit(155), 0), 1)
			bld.Tier(roots, 3, bld.Class("regional", 5*time.Millisecond, cluster.Mbit(45), 0), 1)
			topo, err := bld.Build()
			if err != nil {
				b.Fatal(err)
			}
			e := sim.NewEngine()
			n := New(e, topo, cluster.DASParams())
			var leaves []cluster.NodeID // leaf clusters' gateways
			for c := 0; c < topo.Clusters; c++ {
				if !slices.Contains(topo.WAN.Roots(), int32(c)) {
					leaves = append(leaves, n.gateways[c])
				}
			}
			left := b.N
			for k, gw := range leaves {
				to := leaves[(k+len(leaves)/2)%len(leaves)]
				n.SetHandler(gw, func(Msg) {
					if left > 0 {
						left--
						n.Send(Msg{From: gw, To: to, Kind: KindData, Size: 64})
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < depth; i++ {
				k := i % len(leaves)
				n.Send(Msg{From: leaves[k], To: leaves[(k+len(leaves)/2)%len(leaves)], Kind: KindData, Size: 64})
			}
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			var hops int64
			for _, r := range n.PipeReports() {
				hops += r.Msgs
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/hop")
		})
	}
}
