package netsim

import (
	"reflect"
	"testing"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/rng"
	"albatross/internal/sim"
)

// The WAN path is one pipeline carrying wire units; an unframed message is a
// one-message unit on stream 0 with no sequence number. These tests pin that
// premise from outside: a framed network whose frames never hold more than
// one message must be indistinguishable, delivery for delivery, from the
// plain network — and the differences that do survive are the counted ones.

// foldPlatforms are the two platform kinds the premise is pinned on: the
// single-hop DAS mesh and a declared multi-hop graph.
var foldPlatforms = []struct {
	name  string
	build func(t *testing.T, par cluster.Params) (*sim.Engine, *testNet)
}{
	{"mesh4x3", func(_ *testing.T, par cluster.Params) (*sim.Engine, *testNet) {
		e := sim.NewEngine()
		return e, collect(New(e, cluster.DAS(4, 3), par))
	}},
	{"tiered", func(t *testing.T, par cluster.Params) (*sim.Engine, *testNet) {
		return tieredTestNet(t, par, 0)
	}},
}

// foldParams returns the plain parameters (framed == false) or the same with
// the transport layer on and every frame sealed by its first message.
func foldParams(framed bool) cluster.Params {
	par := testParams()
	par.GatewayCost = 30 * time.Microsecond
	if framed {
		par.MaxFrameBytes = 1
	}
	return par
}

type foldDelivery struct {
	at time.Duration
	to cluster.NodeID
	id int
}

// foldTraffic schedules count seeded random messages among the first
// `endpoints` node IDs (compute nodes only, or compute nodes and gateways)
// at instants drawn from a coarse grid, so many sends share an instant, and
// returns every delivery in handler order.
func foldTraffic(t *testing.T, e *sim.Engine, n *testNet, seed uint64, count, endpoints int) []foldDelivery {
	t.Helper()
	var got []foldDelivery
	for id := 0; id < endpoints; id++ {
		id := cluster.NodeID(id)
		n.SetHandler(id, func(m Msg) {
			got = append(got, foldDelivery{e.Now(), id, m.Payload.(int)})
		})
	}
	r := rng.New(seed)
	for i := 0; i < count; i++ {
		from := cluster.NodeID(r.Intn(endpoints))
		to := cluster.NodeID(r.Intn(endpoints))
		m := Msg{From: from, To: to, Kind: KindData, Size: 1 + r.Intn(2000), Payload: i}
		e.At(time.Duration(r.Intn(40))*250*time.Microsecond, func() { n.Send(m) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != count {
		t.Fatalf("delivered %d of %d messages", len(got), count)
	}
	return got
}

// TestPlainEqualsOneMessageFrames: identical delivery instants in identical
// order on the plain path and on the framed path with MaxFrameBytes=1, for
// node-addressed and for gateway-addressed traffic. (The latter agrees
// because the remote forwarding slot is charged only when a unit has
// something to forward onto the LAN, whichever path carried it.)
func TestPlainEqualsOneMessageFrames(t *testing.T) {
	for _, pf := range foldPlatforms {
		for _, withGW := range []bool{false, true} {
			name := pf.name + "/nodes"
			if withGW {
				name = pf.name + "/nodes+gateways"
			}
			t.Run(name, func(t *testing.T) {
				for seed := uint64(1); seed <= 3; seed++ {
					var runs [2][]foldDelivery
					for i, framed := range []bool{false, true} {
						e, n := pf.build(t, foldParams(framed))
						if (n.xp != nil) != framed {
							t.Fatalf("transport active = %v, want %v", n.xp != nil, framed)
						}
						endpoints := n.Topology().Compute()
						if withGW {
							endpoints = n.Topology().Total()
						}
						runs[i] = foldTraffic(t, e, n, seed, 400, endpoints)
					}
					for i := range runs[0] { // equal lengths: foldTraffic checked the count
						if runs[0][i] != runs[1][i] {
							t.Fatalf("seed %d: delivery %d differs: plain %+v, framed %+v", seed, i, runs[0][i], runs[1][i])
						}
					}
				}
			})
		}
	}
}

// TestMeshShorthandEqualsDeclaredMesh: DAS(4, 3) and a Builder-declared full
// mesh of one "wan" class at the same figures are one platform — equal
// deliveries, stats, pipe reports, class reports and elapsed time for the
// fold traffic, plain and framed, with and without a link cut that forces
// detours.
func TestMeshShorthandEqualsDeclaredMesh(t *testing.T) {
	type observed struct {
		deliveries []foldDelivery
		stats      Stats
		pipes      []PipeReport
		classes    []ClassReport
		elapsed    time.Duration
	}
	for _, framed := range []bool{false, true} {
		for _, cut := range []bool{false, true} {
			par := foldParams(framed)
			b := cluster.NewBuilder()
			b.Roots(4, cluster.Mesh, b.Class("wan", par.WANLatency, par.WANBandwidth, 0), 3)
			declared, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(1); seed <= 3; seed++ {
				var runs [2]observed
				for i, topo := range []cluster.Topology{cluster.DAS(4, 3), declared} {
					e := sim.NewEngine()
					n := collect(New(e, topo, par))
					if cut {
						n.SetFaultPolicy(&testPolicy{downs: downPair(0, 1, 2*time.Millisecond, 4*time.Millisecond)})
					}
					got := foldTraffic(t, e, n, seed, 400, topo.Total())
					runs[i] = observed{got, *n.Stats(), n.PipeReports(), n.ClassReports(), e.Now()}
				}
				if cut && runs[0].stats.Reroutes() == 0 {
					t.Fatalf("framed=%v seed %d: the cut rerouted nothing", framed, seed)
				}
				if !reflect.DeepEqual(runs[0], runs[1]) {
					t.Fatalf("framed=%v cut=%v seed %d: shorthand and declared mesh differ\nshorthand: %+v\ndeclared:  %+v",
						framed, cut, seed, runs[0], runs[1])
				}
			}
		}
	}
}

// TestGatewayAddressedSkipsRemoteSlot pins the remote-gateway rule exactly on
// both paths: a message addressed to the gateway itself is consumed there and
// takes no forwarding slot, so a node-addressed message arriving at the same
// instant is forwarded as if it were alone.
func TestGatewayAddressedSkipsRemoteSlot(t *testing.T) {
	for _, framed := range []bool{false, true} {
		par := foldParams(framed)
		e := sim.NewEngine()
		n := New(e, cluster.Topology{Clusters: 3, NodesPerCluster: 2}, par)
		gw := func(c int) cluster.NodeID { return cluster.NodeID(6 + c) }
		var atGW, atNode time.Duration
		n.SetHandler(gw(2), func(Msg) { atGW = e.Now() })
		n.SetHandler(4, func(Msg) { atNode = e.Now() })
		// Two zero-serialization sends from two source gateways reach cluster
		// 2's gateway together: slot 30us + WAN 1001us = 1031us.
		n.Send(Msg{From: gw(0), To: gw(2), Kind: KindControl, Size: 0})
		n.Send(Msg{From: gw(1), To: 4, Kind: KindData, Size: 0})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if want := 1031 * time.Microsecond; atGW != want {
			t.Fatalf("framed=%v: gateway-addressed delivery at %v, want %v", framed, atGW, want)
		}
		// One remote slot (30us) then the FE leg (51us) — not two slots.
		if want := (1031 + 30 + 51) * time.Microsecond; atNode != want {
			t.Fatalf("framed=%v: node delivery at %v, want %v (one remote slot)", framed, atNode, want)
		}
	}
}

// TestFrameCountersCountSequencedUnitsOnly: the surviving accounting
// difference. The same traffic meters zero frames on the plain path and one
// frame per message (per hop, in the wire-level reports) on the framed path,
// while messages and bytes agree.
func TestFrameCountersCountSequencedUnitsOnly(t *testing.T) {
	for _, pf := range foldPlatforms {
		var reps [2][]PipeReport
		for i, framed := range []bool{false, true} {
			e, n := pf.build(t, foldParams(framed))
			foldTraffic(t, e, n, 7, 200, n.Topology().Compute())
			s := n.Stats()
			inter := s.TotalInter().Msgs
			reps[i] = n.PipeReports()
			var pipeMsgs, pipeFrames, classFrames int64
			for _, r := range reps[i] {
				pipeMsgs += r.Msgs
				pipeFrames += r.Frames
			}
			for _, r := range n.ClassReports() {
				classFrames += r.Frames
			}
			wantFrames, wantPipeFrames := int64(0), int64(0)
			if framed {
				wantFrames, wantPipeFrames = inter, pipeMsgs
			}
			if got := s.WANFrames().Msgs; got != wantFrames || s.FramedMsgs() != wantFrames {
				t.Fatalf("%s framed=%v: WANFrames=%d FramedMsgs=%d, want %d", pf.name, framed, got, s.FramedMsgs(), wantFrames)
			}
			if pipeFrames != wantPipeFrames || classFrames != wantPipeFrames {
				t.Fatalf("%s framed=%v: pipe frames %d, class frames %d, want %d", pf.name, framed, pipeFrames, classFrames, wantPipeFrames)
			}
		}
		// Apart from the frame column the per-pipe loads are the same loads.
		for i := range reps[1] {
			reps[1][i].Frames = 0
		}
		if !reflect.DeepEqual(reps[0], reps[1]) {
			t.Fatalf("%s: pipe loads differ beyond the frame counter:\nplain  %+v\nframed %+v", pf.name, reps[0], reps[1])
		}
	}
}

// TestFramedMidRouteCrashSequential is the regression test for a panic on
// the sequential engine: a frame lost at an intermediate gateway schedules
// its sequence tombstone at the routed latency floor, and that table used to
// be built only when sharded or when link cuts were planned. It also pins
// that the tombstone is consumed: frames sent after the crash clears
// deliver, so reassembly did not wedge behind the lost sequence numbers.
func TestFramedMidRouteCrashSequential(t *testing.T) {
	par := testParams()
	par.MaxFrameBytes = 4096
	par.CoalesceWindow = 100 * time.Microsecond
	e, n := tieredTestNet(t, par, 0)
	// Route 1→0→2→3: cluster 0's gateway is an intermediate stop.
	n.SetFaultPolicy(&testPolicy{gwDown: func(at time.Duration, c int, _ Msg) bool {
		return c == 0 && at < 5*time.Millisecond
	}})
	var got []int
	n.SetHandler(6, func(m Msg) { got = append(got, m.Payload.(int)) })
	for i := 0; i < 5; i++ {
		n.Send(Msg{From: 2, To: 6, Kind: KindData, Size: 1000, Payload: i})
	}
	for i := 5; i < 8; i++ {
		i := i
		e.At(10*time.Millisecond, func() {
			n.Send(Msg{From: 2, To: 6, Kind: KindData, Size: 1000, Payload: i})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{5, 6, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("deliveries %v, want %v (pre-crash frames lost, later frames not wedged)", got, want)
	}
}
