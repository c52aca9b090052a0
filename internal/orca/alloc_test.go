//go:build !race

// Alloc-regression tests for the flattened data path: the steady-state cost
// of the core messaging operations, in allocations per operation, measured
// with testing.AllocsPerRun and pinned to zero. A change that reintroduces
// per-message allocation (tag construction, record churn, payload boxing)
// fails here long before it shows up in the benchmarks.
//
// The file is excluded under the race detector: instrumentation inflates
// allocation counts and these budgets are meaningless there.
package orca

import (
	"runtime"
	"testing"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/netsim"
	"albatross/internal/sim"
)

// drive builds a one-operation-per-kick harness: body runs in a daemon
// process, performing one operation each time the returned step function is
// called. Each step enqueues one kick and drains the engine, so everything
// the operation schedules (transits, deliveries, acknowledgements, token
// hops) is charged to that step.
func drive(e *sim.Engine, name string, body func(p *sim.Proc)) (step func()) {
	kick := sim.NewMailbox(e, name)
	e.Go(name, func(p *sim.Proc) {
		p.SetDaemon(true)
		for {
			kick.Get(p)
			body(p)
		}
	})
	var tok any = "kick"
	return func() {
		kick.Put(tok)
		if err := e.Run(); err != nil {
			panic(err)
		}
	}
}

// allocBudget runs step under AllocsPerRun after warming every free list and
// checks the steady-state allocation count against the budget.
func allocBudget(t *testing.T, name string, step func(), budget float64) {
	t.Helper()
	for i := 0; i < 16; i++ {
		step() // warm pools, mailbox rings, and goroutine stacks
	}
	if got := testing.AllocsPerRun(100, step); got > budget {
		t.Errorf("%s: %.1f allocs/op, budget %.0f", name, got, budget)
	}
}

// TestAllocSendRecvData pins the tagged point-to-point path at zero: an
// interned tag carried in the Msg header and a pre-boxed payload make
// SendDataID/RecvDataID allocation-free.
func TestAllocSendRecvData(t *testing.T) {
	e, _, rts := build(1, 2, nil)
	id := rts.InternTag(Tag{Op: "alloc-p2p"})
	var payload any = "payload"
	rx := drive(e, "alloc-rx", func(p *sim.Proc) {
		if got := rts.RecvDataID(p, 1, id); got != payload {
			t.Fatal("wrong payload")
		}
	})
	step := func() {
		rts.SendDataID(0, 1, id, 64, payload)
		rx()
	}
	allocBudget(t, "SendDataID/RecvDataID", step, 0)
}

// TestAllocReliableRoundTrip pins a reliable cross-cluster data message —
// envelope, in-order delivery, cumulative ack, window slide and the lapsing
// retransmit timer — at zero: the sequence number rides in the Msg header,
// the sender's window holds its slots by value and every ack shares one
// payload.
func TestAllocReliableRoundTrip(t *testing.T) {
	e, _, rts := build(2, 2, nil)
	rts.EnableReliability(RelConfig{})
	id := rts.InternTag(Tag{Op: "alloc-rel"})
	var payload any = "payload"
	rx := drive(e, "alloc-rx", func(p *sim.Proc) {
		if got := rts.RecvDataID(p, 2, id); got != payload {
			t.Fatal("wrong payload")
		}
	})
	step := func() {
		rts.SendDataID(0, 2, id, 64, payload)
		rx()
	}
	allocBudget(t, "reliable SendDataID/RecvDataID", step, 0)
	if s := rts.RelStats(); s.Wrapped == 0 || s.Acks != s.Wrapped {
		t.Fatalf("messages did not travel the reliable channel: %+v", s)
	}
}

// TestAllocRPCRoundTrip pins a full remote invocation — request, dispatch,
// reply, caller wake — at zero steady-state allocations.
func TestAllocRPCRoundTrip(t *testing.T) {
	e, _, rts := build(1, 2, nil)
	obj := rts.NewObject("c", 0, &counter{})
	op := Op{Name: "inc", ArgBytes: 8, ResBytes: 8,
		Apply: func(s any) any { c := s.(*counter); c.n++; return nil }}
	step := drive(e, "alloc-rpc", func(p *sim.Proc) {
		obj.Invoke(p, 1, op)
	})
	allocBudget(t, "RPC round trip", step, 0)
}

// TestAllocBroadcast pins one totally-ordered replicated update at zero for
// each sequencer protocol: the pendingBcast record is the wire payload end
// to end, submit/grant/token records come from free lists, and the ordering
// queues reuse their capacity. On two LPs the same records recycle into the
// free list of whichever LP drops the last reference, so a list only refills
// when the traffic flows back: the budget (per write, one writer per
// cluster) is what that migration leaves, and it sits ~3 below the
// unpooled rule, which allocated a record, a future and a closure per write.
func TestAllocBroadcast(t *testing.T) {
	cases := []struct {
		name     string
		mk       func() Sequencer
		lpBudget float64
	}{
		{"central", func() Sequencer { return NewCentralSequencer(0) }, 3},
		{"rotating", func() Sequencer { return NewRotatingSequencer() }, 2},
		{"migrating", func() Sequencer { return NewMigratingSequencer() }, 0.25},
	}
	op := Op{Name: "inc", ArgBytes: 8, ResBytes: 8,
		Apply: func(s any) any { c := s.(*counter); c.n++; return nil }}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, _, rts := build(2, 2, tc.mk())
			obj := rts.NewReplicated("c", func(n cluster.NodeID) any { return &counter{} })
			step := drive(e, "alloc-bcast", func(p *sim.Proc) {
				obj.Invoke(p, 1, op)
			})
			allocBudget(t, tc.name+" broadcast", step, 0)
		})
		t.Run(tc.name+"/2LP", func(t *testing.T) {
			got := shardedWrites(t, tc.mk(), func(p *sim.Proc, obj *Object, from cluster.NodeID) {
				obj.Invoke(p, from, op)
			})
			if got > tc.lpBudget {
				t.Errorf("%s broadcast on 2 LPs: %.2f allocs/write, budget %.2f", tc.name, got, tc.lpBudget)
			}
		})
	}
}

// TestAllocAsyncUpdate pins an unordered replicated update, the same pooled
// record released on every compute node, at zero on the sequential engine
// and at ~zero per update on two LPs.
func TestAllocAsyncUpdate(t *testing.T) {
	op := Op{Name: "inc", ArgBytes: 8,
		Apply: func(s any) any { c := s.(*counter); c.n++; return nil }}
	e, _, rts := build(2, 2, nil)
	obj := rts.NewReplicated("c", func(n cluster.NodeID) any { return &counter{} })
	step := func() {
		obj.AsyncUpdate(1, op)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	allocBudget(t, "AsyncUpdate", step, 0)
	got := shardedWrites(t, nil, func(p *sim.Proc, obj *Object, from cluster.NodeID) {
		obj.AsyncUpdate(from, op)
		p.Sleep(10 * time.Millisecond) // let each update retire before the next
	})
	if got > 0.1 {
		t.Errorf("AsyncUpdate on 2 LPs: %.2f allocs/update, budget 0.1", got)
	}
}

// shardedWrites runs one writer per cluster of a two-LP 2x2 engine, each
// performing 2000 operations, in a single Run, and returns the run's
// allocations per operation (LP threads, processes and free-list warm-up
// amortized in).
func shardedWrites(t *testing.T, seqr Sequencer, body func(p *sim.Proc, obj *Object, from cluster.NodeID)) float64 {
	t.Helper()
	const n = 2000
	e := sim.NewEngine()
	e.Shard(2)
	net := netsim.New(e, cluster.Topology{Clusters: 2, NodesPerCluster: 2}, cluster.DASParams())
	rts := New(net, seqr)
	obj := rts.NewReplicated("c", func(n cluster.NodeID) any { return &counter{} })
	for c := 0; c < 2; c++ {
		from := rts.topo.Node(c, 1)
		net.EngineFor(c).Go("writer", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				body(p, obj, from)
			}
		})
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := obj.Replica(0).(*counter).n; got != 2*n {
		t.Fatalf("replica 0 applied %d updates, want %d", got, 2*n)
	}
	return float64(after.Mallocs-before.Mallocs) / (2 * n)
}
