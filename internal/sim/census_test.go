package sim

import (
	"testing"
	"time"
)

// TestCensusSumsToDispatched: every scheduled event is dispatched exactly
// once, so on a drained run the six census counts sum to Dispatched() — on
// the sequential engine and summed over the LPs of a sharded one, which must
// also agree with each other count by count. The world's cross-cluster posts
// go through lanes; a seventh process adds the two origins it lacks.
func TestCensusSumsToDispatched(t *testing.T) {
	const clusters, perC, iters = 4, 3, 40
	var seq Census
	for _, sharded := range []bool{false, true} {
		w := buildWorld(t, clusters, perC, iters, sharded)
		w.lanes = make([]*Lane[func()], clusters*clusters)
		w.engs[1].Go("sleeper", func(p *Proc) {
			for k := 0; k < 5; k++ {
				p.Sleep(time.Millisecond)
				p.Sleep(0)
			}
		})
		if res := w.run(); res.err != nil {
			t.Fatalf("sharded=%v: %v", sharded, res.err)
		}
		c := w.root.Census()
		if c.Total() != w.root.Dispatched() {
			t.Errorf("sharded=%v: census %+v sums to %d, Dispatched() is %d", sharded, c, c.Total(), w.root.Dispatched())
		}
		n := uint64(clusters * perC)
		if c.Start != n+1 || c.Compute != n*iters || c.Sleep != 10 {
			t.Errorf("sharded=%v: census %+v, want %d starts, %d computes, 10 sleeps", sharded, c, n+1, n*iters)
		}
		// Each node posts twice per iteration: to its ring successor, always in
		// another cluster, and to node 0, which is local for cluster 0 only.
		if lane := n*iters + (n-perC)*iters; c.Lane != lane || c.Callback != perC*iters {
			t.Errorf("sharded=%v: census %+v, want %d lane and %d callback events", sharded, c, lane, perC*iters)
		}
		if c.Wake == 0 {
			t.Errorf("sharded=%v: no wake counted", sharded)
		}
		if !sharded {
			seq = c
		} else if c != seq {
			t.Errorf("sharded census %+v differs from the sequential one %+v", c, seq)
		}
	}
}
