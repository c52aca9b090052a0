package cluster

import (
	"testing"
	"time"
)

// TestAllPairsCost checks the routed-cost matrix on a small tiered platform
// against hand-computed values: a 3-root ring backbone (10ms hops) with one
// access child per root (1ms hops), per-hop software overhead of 2us.
func TestAllPairsCost(t *testing.T) {
	b := NewBuilder()
	trunk := b.Class("trunk", 10*time.Millisecond, Mbit(100), 0)
	access := b.Class("access", time.Millisecond, Mbit(100), 0)
	rt := b.Roots(3, Ring, trunk, 4)
	b.Tier(rt, 1, access, 2)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := topo.WAN
	over := 2 * time.Microsecond
	cost := g.AllPairsCost(topo.Clusters, func(class int) time.Duration {
		return g.Classes[class].Latency + over
	})
	if len(cost) != topo.Clusters {
		t.Fatalf("matrix has %d rows, want %d", len(cost), topo.Clusters)
	}
	th := 10*time.Millisecond + over // one trunk hop
	ah := time.Millisecond + over    // one access hop
	roots := g.Roots()
	r0, r1 := int(roots[0]), int(roots[1])
	leaf0 := int(g.sub[r0][0]) + 1 // DFS order: root then its child
	leaf1 := int(g.sub[r1][0]) + 1
	cases := []struct {
		a, b int
		want time.Duration
	}{
		{r0, r0, 0},
		{r0, r1, th},                 // one ring hop
		{r0, leaf0, ah},              // down the access link
		{leaf0, leaf1, ah + th + ah}, // up, across, down
		{leaf0, r1, ah + th},
	}
	for _, c := range cases {
		if got := cost[c.a][c.b]; got != c.want {
			t.Errorf("cost[%d][%d] = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := cost[c.b][c.a]; got != c.want {
			t.Errorf("cost[%d][%d] = %v, want %v (symmetry)", c.b, c.a, got, c.want)
		}
	}
	// Every off-diagonal entry is positive and finite; the triangle
	// inequality holds (shortest paths compose).
	for a := 0; a < topo.Clusters; a++ {
		for bb := 0; bb < topo.Clusters; bb++ {
			if a != bb && cost[a][bb] <= 0 {
				t.Fatalf("cost[%d][%d] = %v, want positive", a, bb, cost[a][bb])
			}
			for k := 0; k < topo.Clusters; k++ {
				if cost[a][bb] > cost[a][k]+cost[k][bb] {
					t.Fatalf("triangle violation: cost[%d][%d]=%v > cost[%d][%d]+cost[%d][%d]=%v",
						a, bb, cost[a][bb], a, k, k, bb, cost[a][k]+cost[k][bb])
				}
			}
		}
	}
}

func TestAllPairsCostRejectsFreeHops(t *testing.T) {
	topo := twoTier(t)
	defer func() {
		if r, want := recover(), `cluster: AllPairsCost needs a positive per-hop cost, class "trunk" got 0s`; r != want {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	topo.WAN.AllPairsCost(topo.Clusters, func(int) time.Duration { return 0 })
}
