//go:build !race

package core

import (
	"testing"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/orca"
	"albatross/internal/sim"
)

// TestAllocServiceName: the coordinator services are tags interned once at
// construction, so a warm ClusterCache.Get hit through a remote source's
// coordinator and a ClusterReducer.Put to a remote target — the two calls of
// every Water-opt request — allocate nothing for the name. What is left is
// the one Request record the sender builds per service request, two here;
// formatting the name per operation made it six.
// (Excluded under the race detector like the other alloc budgets.)
func TestAllocServiceName(t *testing.T) {
	sys := NewDAS(2, 2)
	data := sys.RTS.InternTag(orca.Tag{Op: "data"})
	cc := NewClusterCache(sys, "t", func(p *sim.Proc, at, source cluster.NodeID, key any) (any, int) {
		return sys.RTS.Call(p, at, source, data, 16, key), 1024
	})
	mb := sys.RTS.RegisterService(2, data)
	sys.spawnDaemon(2, "data-server", func(w *Worker) {
		for {
			orca.NextRequest(w.P, mb).Reply(1024, "payload")
		}
	})
	cr := NewClusterReducer(sys, "t", func(acc, v any) any { return v })

	// Node 1 reads node 2's data through its cluster's coordinator for node 2
	// (node 0) and contributes to node 3 through its coordinator (node 1
	// itself: a loopback cast, the same service lookup).
	const reader, source, target = 1, 2, 3
	tag := sys.RTS.InternTag(orca.Tag{Op: "alloc-reduce"})
	var key, value any = "iter", "force"
	kick := sim.NewMailbox(sys.Engine, "kick")
	sys.spawnDaemon(reader, "reader", func(w *Worker) {
		for {
			kick.Get(w.P)
			if cc.Get(w, source, key) != "payload" {
				t.Error("wrong cached data")
			}
			cr.Put(w, target, tag, 64, value, 1)
		}
	})
	sys.spawnDaemon(target, "target", func(w *Worker) {
		for {
			w.RecvID(tag)
		}
	})
	step := func() {
		kick.Put(key)
		if err := sys.Engine.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		step() // first step fetches over the WAN; the rest warm pools and rings
	}
	if got := testing.AllocsPerRun(100, step); got > 2 {
		t.Errorf("warm Get + Put: %.1f allocs/op, budget 2 (one Request each)", got)
	}
	sys.Engine.Shutdown()
}

// TestAllocCombinerSendID: a warm Combiner.SendID to a remote cluster costs
// one allocation per message, the Request that carries the item to its
// cluster's combining agent. The agents' services are tags interned at
// construction, so no name is built per message or per flush. A flush's own
// allocations (the combined message's Request and its timer) spread over
// the burst of messages it carries, and AllocsPerRun counts whole
// allocations per run.
func TestAllocCombinerSendID(t *testing.T) {
	sys := NewDAS(2, 2)
	cb := NewCombiner(sys, "t", 8192, 500*time.Microsecond)
	tag := sys.RTS.InternTag(orca.Tag{Op: "alloc-comb"})
	const from, to, burst = 0, 3, 64
	sys.spawnDaemon(to, "rx", func(w *Worker) {
		for {
			w.RecvID(tag)
		}
	})
	w := &Worker{Sys: sys, Node: from}
	var payload any = "payload"
	sent := 0
	step := func() {
		cb.SendID(w, to, tag, 16, payload)
		if sent++; sent%burst == 0 { // deliver, flush and scatter the burst
			if err := sys.Engine.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 4*burst; i++ {
		step() // warm pools, mailbox rings and the event queue
	}
	if got := testing.AllocsPerRun(10*burst, step); got > 1 {
		t.Errorf("warm SendID: %.1f allocs/message, budget 1 (the Request)", got)
	}
	sys.Engine.Shutdown()
}
