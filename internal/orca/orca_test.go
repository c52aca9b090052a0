package orca

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/netsim"
	"albatross/internal/rng"
	"albatross/internal/sim"
)

func build(clusters, npc int, seqr Sequencer) (*sim.Engine, *netsim.Network, *RTS) {
	e := sim.NewEngine()
	topo := cluster.Topology{Clusters: clusters, NodesPerCluster: npc}
	net := netsim.New(e, topo, cluster.DASParams())
	rts := New(net, seqr)
	return e, net, rts
}

// counter state for shared-object tests.
type counter struct{ n int }

func incOp(by int) Op {
	return Op{Name: "inc", ArgBytes: 8, ResBytes: 8,
		Apply: func(s any) any { c := s.(*counter); c.n += by; return c.n }}
}

var readOp = Op{Name: "read", ArgBytes: 4, ResBytes: 8, ReadOnly: true,
	Apply: func(s any) any { return s.(*counter).n }}

// opLog is a replica state that records, in order, the ids of the updates
// applied to it.
type opLog []int

func newOpLog(cluster.NodeID) any { return &opLog{} }

// logOp appends id to the replica's log. Its size is id bytes, so updates
// differ in transfer time.
func logOp(id int) Op {
	return Op{Name: "w", ArgBytes: id, Apply: func(s any) any { l := s.(*opLog); *l = append(*l, id); return nil }}
}

func TestLocalInvoke(t *testing.T) {
	e, _, rts := build(1, 4, nil)
	obj := rts.NewObject("c", 0, &counter{})
	var got any
	e.Go("w", func(p *sim.Proc) {
		obj.Invoke(p, 0, incOp(5))
		got = obj.Invoke(p, 0, readOp)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got.(int) != 5 {
		t.Fatalf("got %v", got)
	}
	if e.Now() != 0 {
		t.Fatalf("local ops took %v", e.Now())
	}
	if rts.Ops().RPCs != 0 || rts.Ops().LocalOps != 2 {
		t.Fatalf("ops %+v", rts.Ops())
	}
}

func TestRemoteRPC(t *testing.T) {
	e, net, rts := build(1, 4, nil)
	obj := rts.NewObject("c", 0, &counter{})
	var got any
	e.Go("w", func(p *sim.Proc) {
		got = obj.Invoke(p, 2, incOp(7))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got.(int) != 7 {
		t.Fatalf("got %v", got)
	}
	if rts.Ops().RPCs != 1 {
		t.Fatalf("ops %+v", rts.Ops())
	}
	s := net.Stats()
	if s.Intra(netsim.KindRPCReq).Msgs != 1 || s.Intra(netsim.KindRPCRep).Msgs != 1 {
		t.Fatalf("stats %v", s)
	}
}

// TestTable1LANRPCLatency checks the null-RPC calibration against the
// paper's Table 1: 40 us application-to-application on Myrinet.
func TestTable1LANRPCLatency(t *testing.T) {
	e, _, rts := build(1, 2, nil)
	obj := rts.NewObject("c", 0, &counter{})
	var rtt time.Duration
	e.Go("w", func(p *sim.Proc) {
		start := p.Now()
		obj.Invoke(p, 1, Op{Name: "null", Apply: func(s any) any { return nil }})
		rtt = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if rtt < 30*time.Microsecond || rtt > 50*time.Microsecond {
		t.Fatalf("LAN null RPC %v, want ~40us", rtt)
	}
}

// TestTable1LANBcastLatency pins the replicated-update calibration to its
// closed form: on an idle 1x60 cluster a null write pays a submit message
// to the central sequencer and one hardware multicast back, each one
// serialization at LAN bandwidth plus its latency and two software
// overheads. DASParams gives 68us (the paper measured 65us).
func TestTable1LANBcastLatency(t *testing.T) {
	par := cluster.DASParams()
	xmit := time.Duration(float64(HeaderBytes) / par.LANBandwidth * float64(time.Second))
	want := xmit + par.LANLatency + 2*par.SoftwareOverhead +
		xmit + par.LANBcastLatency + 2*par.SoftwareOverhead
	e, _, rts := build(1, 60, nil)
	obj := rts.NewReplicated("c", func(cluster.NodeID) any { return &counter{} })
	var lat time.Duration
	e.Go("w", func(p *sim.Proc) {
		start := p.Now()
		obj.Invoke(p, 5, Op{Name: "null", Apply: func(s any) any { return nil }})
		lat = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if lat != want {
		t.Fatalf("LAN replicated update %v, want %v", lat, want)
	}
	if lat.Round(time.Microsecond) != 68*time.Microsecond {
		t.Fatalf("LAN replicated update %v, want 68us at DASParams", lat)
	}
}

// TestTable1WANRPCLatency checks the WAN null-RPC calibration: ~2.7 ms
// round trip.
func TestTable1WANRPCLatency(t *testing.T) {
	e, _, rts := build(2, 2, nil)
	obj := rts.NewObject("c", 0, &counter{})
	var rtt time.Duration
	e.Go("w", func(p *sim.Proc) {
		// Node 2 lives in cluster 1: the call crosses the WAN twice.
		start := p.Now()
		obj.Invoke(p, 2, Op{Name: "null", Apply: func(s any) any { return nil }})
		rtt = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if rtt < 2300*time.Microsecond || rtt > 3100*time.Microsecond {
		t.Fatalf("WAN null RPC %v, want ~2.7ms", rtt)
	}
}

// TestTable1Bandwidth checks that a 100 KB stream achieves roughly the
// configured link bandwidths at application level.
func TestTable1Bandwidth(t *testing.T) {
	for _, tc := range []struct {
		name     string
		clusters int
		to       cluster.NodeID
		minMbit  float64
		maxMbit  float64
	}{
		{"LAN", 1, 1, 150, 230},
		{"WAN", 2, 2, 3.8, 5.0},
	} {
		e, _, rts := build(tc.clusters, 2, nil)
		const chunk = 100 * 1024
		const nmsg = 10
		var elapsed time.Duration
		done := sim.NewFuture(e, "done")
		tag := rts.InternTag(Tag{Op: "bw"})
		e.Go("recv", func(p *sim.Proc) {
			for i := 0; i < nmsg; i++ {
				rts.RecvDataID(p, tc.to, tag)
			}
			done.Set(nil)
		})
		e.Go("send", func(p *sim.Proc) {
			for i := 0; i < nmsg; i++ {
				rts.SendDataID(0, tc.to, tag, chunk, nil)
			}
			done.Await(p)
			elapsed = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		mbit := float64(nmsg*chunk) * 8 / 1e6 / elapsed.Seconds()
		if mbit < tc.minMbit || mbit > tc.maxMbit {
			t.Fatalf("%s bandwidth %.2f Mbit/s, want [%v,%v]", tc.name, mbit, tc.minMbit, tc.maxMbit)
		}
	}
}

func TestReplicatedReadIsLocalAndFree(t *testing.T) {
	e, net, rts := build(2, 4, nil)
	obj := rts.NewReplicated("c", func(cluster.NodeID) any { return &counter{n: 9} })
	var got any
	e.Go("w", func(p *sim.Proc) { got = obj.Invoke(p, 6, readOp) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got.(int) != 9 {
		t.Fatalf("got %v", got)
	}
	if net.Stats().TotalIntra().Msgs+net.Stats().TotalInter().Msgs != 0 {
		t.Fatal("replicated read generated traffic")
	}
}

func TestReplicatedWriteUpdatesAllReplicas(t *testing.T) {
	for _, seqr := range []Sequencer{NewCentralSequencer(0), NewRotatingSequencer(), NewMigratingSequencer()} {
		e, _, rts := build(2, 3, seqr)
		obj := rts.NewReplicated("c", func(cluster.NodeID) any { return &counter{} })
		e.Go("w", func(p *sim.Proc) {
			obj.Invoke(p, 4, incOp(3))
		})
		if err := e.Run(); err != nil {
			t.Fatalf("%T: %v", seqr, err)
		}
		for i := 0; i < 6; i++ {
			if obj.Replica(cluster.NodeID(i)).(*counter).n != 3 {
				t.Fatalf("%T: replica %d not updated", seqr, i)
			}
		}
	}
}

// TestOrderedUpdateAppliedOnce: a second copy of an ordered update a node has
// already applied is an invariant violation that panics, never an update
// applied twice.
func TestOrderedUpdateAppliedOnce(t *testing.T) {
	e, _, rts := build(2, 3, NewCentralSequencer(0))
	obj := rts.NewReplicated("c", func(cluster.NodeID) any { return &counter{} })
	e.Go("w", func(p *sim.Proc) { obj.Invoke(p, 4, incOp(3)) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("a duplicated ordered update did not panic")
		}
		if n := obj.Replica(1).(*counter).n; n != 3 {
			t.Errorf("replica 1 holds %d after the duplicate, want 3", n)
		}
	}()
	dup := &pendingBcast{obj: obj, op: incOp(3), seq: 0}
	dup.refs.Store(1)
	rts.applyOrdered(1, dup)
}

// TestTotalOrderProperty is the central correctness property of the
// broadcast layer: whatever the sequencer protocol, cluster shape and write
// schedule, every node applies exactly the same sequence of updates.
func TestTotalOrderProperty(t *testing.T) {
	protocols := []func() Sequencer{
		func() Sequencer { return NewCentralSequencer(0) },
		func() Sequencer { return NewRotatingSequencer() },
		func() Sequencer { return NewMigratingSequencer() },
	}
	prop := func(seed uint64, pidx uint8, cl8, npc8 uint8) bool {
		clusters := int(cl8%3) + 1
		npc := int(npc8%4) + 1
		seqr := protocols[int(pidx)%len(protocols)]()
		e, _, rts := build(clusters, npc, seqr)
		obj := rts.NewReplicated("c", newOpLog)

		n := clusters * npc
		r := rng.New(seed)
		writers := 1 + r.Intn(n)
		totalWrites := 0
		for wi := 0; wi < writers; wi++ {
			node := cluster.NodeID(r.Intn(n))
			k := 1 + r.Intn(4)
			totalWrites += k
			wr := r.Derive(uint64(wi))
			base := wi * 100
			e.Go("writer", func(p *sim.Proc) {
				for j := 0; j < k; j++ {
					p.Compute(time.Duration(wr.Intn(2000)) * time.Microsecond)
					obj.Invoke(p, node, logOp(base+j))
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		first := *obj.Replica(0).(*opLog)
		for i := 0; i < n; i++ {
			if !slices.Equal(*obj.Replica(cluster.NodeID(i)).(*opLog), first) || len(first) != totalWrites {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestWriterBlocksUntilOwnDelivery: the invocation must not return before
// the writer's own replica has the new value.
func TestWriterBlocksUntilOwnDelivery(t *testing.T) {
	e, _, rts := build(2, 2, nil)
	obj := rts.NewReplicated("c", func(cluster.NodeID) any { return &counter{} })
	e.Go("w", func(p *sim.Proc) {
		obj.Invoke(p, 3, incOp(1))
		if got := obj.Invoke(p, 3, readOp).(int); got != 1 {
			t.Errorf("own replica stale after write returned: %d", got)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFanOutFollowsToken pins the order of a rotating sequencer's sends on
// DAS 2x2: the token holder orders a queued update and passes the token on
// in one handler, and the update's fan-out runs after that handler, so the
// token reaches the next cluster's sequencer node before the update's WAN
// copy reaches that cluster's gateway (both cross the holder's Fast
// Ethernet link and the same FIFO WAN pipe).
func TestFanOutFollowsToken(t *testing.T) {
	e, net, rts := build(2, 2, NewRotatingSequencer())
	obj := rts.NewReplicated("c", newOpLog)
	home, gw := seqNode(rts.topo, 0), rts.topo.Gateway(0)
	var tokenAt, updateAt []time.Duration
	h := rts.dispatchFor(home)
	net.SetHandler(home, func(m netsim.Msg) {
		if _, ok := m.Payload.(*rotatingToken); ok {
			tokenAt = append(tokenAt, e.Now())
		}
		h(m)
	})
	net.SetHandler(gw, func(m netsim.Msg) {
		if _, ok := m.Payload.(*pendingBcast); ok {
			updateAt = append(updateAt, e.Now())
		}
		rts.gatewayHandler(m)
	})
	e.Go("w", func(p *sim.Proc) {
		obj.Invoke(p, 3, logOp(64)) // node 3 is in cluster 1
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(tokenAt) != 1 || len(updateAt) != 1 {
		t.Fatalf("token reached cluster 0's sequencer %d times and the update its gateway %d times, want 1 and 1", len(tokenAt), len(updateAt))
	}
	if tokenAt[0] >= updateAt[0] {
		t.Fatalf("token back home at %v, not before the update's WAN copy at the gateway at %v", tokenAt[0], updateAt[0])
	}
}

// TestMigratingFasterThanRotatingForBursts reproduces the ASP reasoning:
// a burst of broadcasts from one node should be much faster under the
// migrating sequencer than under the rotating one.
func TestMigratingFasterThanRotatingForBursts(t *testing.T) {
	burst := func(seqr Sequencer) time.Duration {
		e, _, rts := build(4, 4, seqr)
		obj := rts.NewReplicated("c", func(cluster.NodeID) any { return &counter{} })
		e.Go("w", func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				obj.Invoke(p, 5, incOp(1)) // node 5 is in cluster 1
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	rot := burst(NewRotatingSequencer())
	mig := burst(NewMigratingSequencer())
	if mig*3 > rot {
		t.Fatalf("migrating (%v) not clearly faster than rotating (%v)", mig, rot)
	}
}

func TestAsyncUpdateEventuallyEverywhere(t *testing.T) {
	e, _, rts := build(3, 2, nil)
	obj := rts.NewReplicated("c", func(cluster.NodeID) any { return &counter{} })
	e.Go("w", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			obj.AsyncUpdate(1, incOp(1))
		}
		// Sender continues immediately: no virtual time may have passed.
		if p.Now() != 0 {
			t.Errorf("async update blocked the sender until %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if got := obj.Replica(cluster.NodeID(i)).(*counter).n; got != 5 {
			t.Fatalf("replica %d has %d, want 5", i, got)
		}
	}
}

func TestServiceRequestReply(t *testing.T) {
	e, _, rts := build(2, 2, nil)
	adder := rts.InternTag(Tag{Op: "adder"})
	mb := rts.RegisterService(3, adder)
	e.Go("server", func(p *sim.Proc) {
		p.SetDaemon(true)
		for {
			req := NextRequest(p, mb)
			req.Reply(8, req.Payload.(int)+1)
		}
	})
	var got any
	e.Go("client", func(p *sim.Proc) {
		got = rts.Call(p, 0, 3, adder, 8, 41)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got.(int) != 42 {
		t.Fatalf("got %v", got)
	}
}

func TestCastAndHandleService(t *testing.T) {
	e, _, rts := build(1, 2, nil)
	sum := 0
	acc := rts.InternTag(Tag{Op: "acc"})
	rts.HandleService(1, acc, func(req *Request) { sum += req.Payload.(int) })
	e.Go("client", func(p *sim.Proc) {
		rts.Cast(0, 1, acc, 8, 4)
		rts.Cast(0, 1, acc, 8, 38)
		if p.Now() != 0 {
			t.Error("Cast blocked the sender")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sum != 42 {
		t.Fatalf("sum %d", sum)
	}
}

func TestDataTagsIsolateStreams(t *testing.T) {
	e, _, rts := build(1, 2, nil)
	tagA, tagB := rts.InternTag(Tag{Op: "a"}), rts.InternTag(Tag{Op: "b", A: 1})
	var gotA, gotB any
	e.Go("recv", func(p *sim.Proc) {
		gotB = rts.RecvDataID(p, 1, tagB)
		gotA = rts.RecvDataID(p, 1, tagA)
	})
	e.Go("send", func(p *sim.Proc) {
		rts.SendDataID(0, 1, tagA, 10, "A")
		rts.SendDataID(0, 1, tagB, 10, "B")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if gotA != "A" || gotB != "B" {
		t.Fatalf("got %v %v", gotA, gotB)
	}
}

// TestInternTagCeiling: a tag rides in the 16-bit Msg.Tag word as its ID
// plus one, so the last ID a runtime assigns is maxTags−1 (word 0xFFFF), a
// message with it reaches its own mailbox, and interning one more tag panics
// naming it instead of wrapping onto word 0 ("no tag").
func TestInternTagCeiling(t *testing.T) {
	e, _, rts := build(1, 2, nil)
	first := rts.InternTag(Tag{Op: "ceil"})
	var last TagID
	for i := 1; i < maxTags; i++ {
		last = rts.InternTag(Tag{Op: "ceil", A: i})
	}
	if last != maxTags-1 {
		t.Fatalf("last ID %d, want %d", last, maxTags-1)
	}
	rts.SendDataID(0, 1, last, 8, "last")
	rts.SendDataID(0, 1, first, 8, "first")
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for id, want := range map[TagID]string{first: "first", last: "last"} {
		if got, ok := rts.TryRecvDataID(1, id); !ok || got != want {
			t.Errorf("tag %d: got %v, %v; want %q", id, got, ok, want)
		}
	}
	if got := rts.InternTag(Tag{Op: "ceil", A: 7}); got != 7 {
		t.Errorf("re-interning a known tag at the ceiling gave %d, want 7", got)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "{over 0 0}") {
			t.Fatalf("panic %q does not name the tag", msg)
		}
	}()
	rts.InternTag(Tag{Op: "over"})
	t.Fatal("interning past maxTags did not panic")
}

// BenchmarkDataPath is the data-path rung: one op is one cross-cluster
// SendDataID taken out by TryRecvDataID on a 2×8 DAS platform. Messages go
// out in batches of up to 32 k, every node of each cluster sending to the
// other cluster in turn, and the batch is delivered before it is drained, so
// each message's first touch at delivery and at receipt is a cold one, as
// in RA's flood.
func BenchmarkDataPath(b *testing.B) {
	const npc, depth = 8, 32 << 10
	e, _, rts := build(2, npc, nil)
	id := rts.InternTag(Tag{Op: "bench-data"})
	var payload any = "payload"
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := min(depth, b.N-done)
		for i := 0; i < n; i++ {
			from := cluster.NodeID(i % (2 * npc))
			rts.SendDataID(from, (from+npc)%(2*npc), id, 8, payload)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		got := 0
		for to := cluster.NodeID(0); to < 2*npc; to++ {
			for _, ok := rts.TryRecvDataID(to, id); ok; _, ok = rts.TryRecvDataID(to, id) {
				got++
			}
		}
		if got != n {
			b.Fatalf("drained %d of %d messages", got, n)
		}
		done += n
	}
}

func TestAsyncFIFOPerSender(t *testing.T) {
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		e, _, rts := build(2, 2, nil)
		obj := rts.NewReplicated("log", newOpLog)
		const k = 15
		e.Go("w", func(p *sim.Proc) {
			for i := 0; i < k; i++ {
				obj.AsyncUpdate(0, logOp(i))
				p.Compute(time.Duration(r.Intn(300)) * time.Microsecond)
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		for n := 0; n < 4; n++ {
			log := *obj.Replica(cluster.NodeID(n)).(*opLog)
			if len(log) != k {
				return false
			}
			for i := 0; i < k; i++ {
				if log[i] != i {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestOpsCounting(t *testing.T) {
	e, _, rts := build(2, 2, nil)
	nonrep := rts.NewObject("n", 0, &counter{})
	rep := rts.NewReplicated("r", func(cluster.NodeID) any { return &counter{} })
	e.Go("w", func(p *sim.Proc) {
		nonrep.Invoke(p, 1, incOp(1)) // RPC
		nonrep.Invoke(p, 0, incOp(1)) // local (owner invocation via node 0 context)
		rep.Invoke(p, 1, readOp)      // local read
		rep.Invoke(p, 1, incOp(1))    // broadcast
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	ops := rts.Ops()
	if ops.RPCs != 1 || ops.LocalOps != 2 || ops.Bcasts != 1 {
		t.Fatalf("ops %+v", ops)
	}
}

func TestManyObjectsInterleavedWrites(t *testing.T) {
	// Two replicated objects sharing the global order must not wedge.
	e, _, rts := build(2, 2, nil)
	a := rts.NewReplicated("a", func(cluster.NodeID) any { return &counter{} })
	b := rts.NewReplicated("b", func(cluster.NodeID) any { return &counter{} })
	for i := 0; i < 4; i++ {
		node := cluster.NodeID(i)
		e.Go(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			for j := 0; j < 5; j++ {
				a.Invoke(p, node, incOp(1))
				b.Invoke(p, node, incOp(2))
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if a.Replica(cluster.NodeID(i)).(*counter).n != 20 {
			t.Fatalf("a replica %d wrong", i)
		}
		if b.Replica(cluster.NodeID(i)).(*counter).n != 40 {
			t.Fatalf("b replica %d wrong", i)
		}
	}
}

// TestTotalOrderOnIrregularTopology repeats the core total-order property on
// the paper's real, unequal-cluster DAS shape.
func TestTotalOrderOnIrregularTopology(t *testing.T) {
	for _, mk := range []func() Sequencer{
		func() Sequencer { return NewCentralSequencer(0) },
		func() Sequencer { return NewRotatingSequencer() },
		func() Sequencer { return NewMigratingSequencer() },
	} {
		e := sim.NewEngine()
		topo := cluster.Irregular(5, 2, 3)
		net := netsim.New(e, topo, cluster.DASParams())
		rts := New(net, mk())
		obj := rts.NewReplicated("c", newOpLog)
		n := topo.Compute()
		const writers = 6
		for wi := 0; wi < writers; wi++ {
			node := cluster.NodeID(wi % n)
			id := wi
			e.Go("writer", func(p *sim.Proc) {
				p.Compute(time.Duration(id*150) * time.Microsecond)
				obj.Invoke(p, node, logOp(id))
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		first := *obj.Replica(0).(*opLog)
		for i := 0; i < n; i++ {
			applied := *obj.Replica(cluster.NodeID(i)).(*opLog)
			if len(applied) != writers {
				t.Fatalf("node %d applied %d of %d", i, len(applied), writers)
			}
			if !slices.Equal(applied, first) {
				t.Fatalf("order differs at node %d: %v vs %v", i, applied, first)
			}
		}
	}
}

// TestChaosMix stress-tests the runtime with every primitive interleaved:
// random RPCs, ordered and async replicated writes, service calls and raw
// data messages, across a random topology — everything must stay conserved
// and consistent.
func TestChaosMix(t *testing.T) {
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		clusters := 1 + r.Intn(3)
		npc := 2 + r.Intn(3)
		e, _, rts := build(clusters, npc, nil)
		n := clusters * npc

		counterObj := rts.NewObject("counter", 0, &counter{})
		repObj := rts.NewReplicated("rep", func(cluster.NodeID) any { return &counter{} })
		echoes := 0
		dataTags := make([]TagID, n) // raw data messages go by destination
		echo := rts.InternTag(Tag{Op: "echo"})
		for i := 0; i < n; i++ {
			id := cluster.NodeID(i)
			dataTags[i] = rts.InternTag(Tag{Op: "chaos", A: i})
			rts.HandleService(id, echo, func(req *Request) {
				echoes++
				if req.NeedsReply() {
					req.Reply(8, req.Payload)
				}
			})
		}

		var wantRPC, wantOrdered, wantAsync, wantData, wantCalls int
		dataGot := 0
		for i := 0; i < n; i++ {
			node := cluster.NodeID(i)
			pr := r.Derive(uint64(i))
			steps := 5 + pr.Intn(10)
			e.Go(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
				for s := 0; s < steps; s++ {
					p.Compute(time.Duration(pr.Intn(500)) * time.Microsecond)
					switch pr.Intn(5) {
					case 0:
						counterObj.Invoke(p, node, incOp(1))
						wantRPC++
					case 1:
						repObj.Invoke(p, node, incOp(1))
						wantOrdered++
					case 2:
						repObj.AsyncUpdate(node, incOp(1))
						wantAsync++
					case 3:
						dst := cluster.NodeID(pr.Intn(n))
						if rts.Call(p, node, dst, echo, 8, s) != s {
							panic("echo mismatch")
						}
						wantCalls++
					case 4:
						dst := cluster.NodeID(pr.Intn(n))
						rts.SendDataID(node, dst, dataTags[dst], 16, s)
						wantData++
					}
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		if counterObj.State().(*counter).n != wantRPC {
			return false
		}
		for i := 0; i < n; i++ {
			if repObj.Replica(cluster.NodeID(i)).(*counter).n != wantOrdered+wantAsync {
				return false
			}
			for {
				if _, ok := rts.TryRecvDataID(cluster.NodeID(i), dataTags[i]); !ok {
					break
				}
				dataGot++
			}
		}
		return dataGot == wantData && echoes == wantCalls
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
