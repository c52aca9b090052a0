package cluster

import (
	"strings"
	"testing"
	"time"
)

// twoTier builds 2 backbone clusters, each with two leaf clusters:
// ids 0(root) 1,2(leaves) | 3(root) 4,5(leaves).
func twoTier(t *testing.T) Topology {
	t.Helper()
	b := NewBuilder()
	trunk := b.Class("trunk", 20*time.Millisecond, Mbit(155), 0)
	leafc := b.Class("leaf", 5*time.Millisecond, Mbit(45), 0)
	roots := b.Roots(2, Mesh, trunk, 4)
	b.Tier(roots, 2, leafc, 2, 3)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestBuilderDFSLayout(t *testing.T) {
	topo := twoTier(t)
	if topo.Clusters != 6 {
		t.Fatalf("clusters = %d, want 6", topo.Clusters)
	}
	want := []int{4, 2, 3, 4, 2, 3} // roots cycle [4]; leaves cycle [2,3] in DFS order
	for c, s := range want {
		if topo.Size(c) != s {
			t.Fatalf("size(%d) = %d, want %d (sizes %v)", c, topo.Size(c), s, topo.Sizes)
		}
	}
	g := topo.WAN
	if g.parent[1] != 0 || g.parent[4] != 3 || g.parent[0] != -1 {
		t.Fatal("parent table wrong")
	}
	// 4 leaf uplinks + 1 root-root link.
	if len(g.Links) != 5 {
		t.Fatalf("links = %v", g.Links)
	}
	if len(g.Classes) != 2 || g.Classes[0].Name != "trunk" {
		t.Fatalf("classes = %v", g.Classes)
	}
}

func TestGraphNext(t *testing.T) {
	g := twoTier(t).WAN
	cases := []struct{ u, d, want int }{
		{1, 2, 0}, // sibling leaves route via their root
		{1, 4, 0}, // cross-backbone: up first
		{0, 4, 3}, // root to foreign leaf: across the backbone
		{0, 2, 2}, // root to own leaf: straight down
		{4, 5, 3},
		{5, 0, 3},
	}
	for _, c := range cases {
		if got := g.Next(c.u, c.d); got != c.want {
			t.Fatalf("Next(%d,%d) = %d, want %d", c.u, c.d, got, c.want)
		}
	}
}

func TestRingRouting(t *testing.T) {
	b := NewBuilder()
	cl := b.Class("ring", time.Millisecond, Mbit(100), 0)
	b.Roots(5, Ring, cl, 1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := topo.WAN
	if len(g.Links) != 5 {
		t.Fatalf("ring of 5 has %d links", len(g.Links))
	}
	if got := g.Next(0, 2); got != 1 { // forward is shorter
		t.Fatalf("Next(0,2) = %d", got)
	}
	if got := g.Next(0, 3); got != 4 { // backward is shorter
		t.Fatalf("Next(0,3) = %d", got)
	}
	// Even ring: ties go forward.
	b2 := NewBuilder()
	cl2 := b2.Class("ring", time.Millisecond, Mbit(100), 0)
	b2.Roots(4, Ring, cl2, 1)
	topo2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := topo2.WAN.Next(0, 2); got != 1 {
		t.Fatalf("tie Next(0,2) = %d", got)
	}
}

func TestBuilderErrors(t *testing.T) {
	check := func(name string, f func(b *Builder)) {
		b := NewBuilder()
		f(b)
		if _, err := b.Build(); err == nil {
			t.Fatalf("%s: error not reported", name)
		}
	}
	check("no roots", func(b *Builder) {})
	check("bad class", func(b *Builder) { b.Roots(2, Mesh, 7, 4) })
	check("zero count", func(b *Builder) { b.Roots(0, Mesh, b.Class("c", time.Millisecond, 1e6, 0), 4) })
	check("zero nodes", func(b *Builder) { b.Roots(2, Mesh, b.Class("c", time.Millisecond, 1e6, 0), 0) })
	check("double roots", func(b *Builder) {
		c := b.Class("c", time.Millisecond, 1e6, 0)
		b.Roots(2, Mesh, c, 4)
		b.Roots(2, Mesh, c, 4)
	})
	check("bad tier parent", func(b *Builder) {
		c := b.Class("c", time.Millisecond, 1e6, 0)
		b.Roots(2, Mesh, c, 4)
		b.Tier(5, 2, c, 2)
	})
	check("bad class params", func(b *Builder) {
		b.Roots(2, Mesh, b.Class("c", 0, 1e6, 0), 4)
	})
	check("unnamed class", func(b *Builder) { b.Roots(2, Mesh, b.Class("", time.Millisecond, 1e6, 0), 4) })
	check("tier without nodes", func(b *Builder) {
		c := b.Class("c", time.Millisecond, 1e6, 0)
		b.Tier(b.Roots(2, Mesh, c, 4), 2, c)
	})
}

func TestParseTopology(t *testing.T) {
	cfg := `{
	  "classes": [
	    {"name": "backbone", "latency": "20ms", "mbit": 155, "streams": 2},
	    {"name": "regional", "latency": "5ms", "mbit": 45}
	  ],
	  "roots": {"count": 3, "interconnect": "ring", "class": "backbone", "nodes": [4]},
	  "tiers": [{"fanout": 2, "class": "regional", "nodes": [2]}]
	}`
	topo, err := ParseTopology([]byte(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if topo.Clusters != 9 || topo.Compute() != 3*4+6*2 {
		t.Fatalf("parsed %v", topo)
	}
	if topo.WAN.ic != Ring || len(topo.WAN.Classes) != 2 {
		t.Fatal("graph wrong")
	}
	if topo.WAN.Classes[0].Streams != 2 || topo.WAN.Classes[0].Bandwidth != Mbit(155) {
		t.Fatalf("class 0 = %+v", topo.WAN.Classes[0])
	}
	if got := topo.String(); got != "grid[9c/24n backbone regional ring]" {
		t.Fatalf("string %q", got)
	}
}

func TestParseTopologyErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":         `{`,
		"unknown field":    `{"classes":[{"name":"a","latency":"1ms","mbit":1}],"roots":{"count":2,"class":"a","nodes":[1]},"typo":1}`,
		"no classes":       `{"roots":{"count":2,"class":"a","nodes":[1]}}`,
		"dup class":        `{"classes":[{"name":"a","latency":"1ms","mbit":1},{"name":"a","latency":"1ms","mbit":1}],"roots":{"count":2,"class":"a","nodes":[1]}}`,
		"bad duration":     `{"classes":[{"name":"a","latency":"fast","mbit":1}],"roots":{"count":2,"class":"a","nodes":[1]}}`,
		"unknown class":    `{"classes":[{"name":"a","latency":"1ms","mbit":1}],"roots":{"count":2,"class":"b","nodes":[1]}}`,
		"bad interconnect": `{"classes":[{"name":"a","latency":"1ms","mbit":1}],"roots":{"count":2,"interconnect":"torus","class":"a","nodes":[1]}}`,
		"zero mbit":        `{"classes":[{"name":"a","latency":"1ms","mbit":0}],"roots":{"count":2,"class":"a","nodes":[1]}}`,
		"zero fanout":      `{"classes":[{"name":"a","latency":"1ms","mbit":1}],"roots":{"count":2,"class":"a","nodes":[1]},"tiers":[{"fanout":0,"class":"a","nodes":[1]}]}`,
		"tier bad class":   `{"classes":[{"name":"a","latency":"1ms","mbit":1}],"roots":{"count":2,"class":"a","nodes":[1]},"tiers":[{"fanout":2,"class":"x","nodes":[1]}]}`,
		"huge mesh":        `{"classes":[{"name":"a","latency":"1ms","mbit":1}],"roots":{"count":60000,"class":"a","nodes":[1]}}`,
		"huge tree":        `{"classes":[{"name":"a","latency":"1ms","mbit":1}],"roots":{"count":2,"class":"a","nodes":[1]},"tiers":[{"fanout":300,"class":"a","nodes":[1]},{"fanout":300,"class":"a","nodes":[1]}]}`,
		"huge fanout":      `{"classes":[{"name":"a","latency":"1ms","mbit":1}],"roots":{"count":2,"class":"a","nodes":[1]},"tiers":[{"fanout":4000000000,"class":"a","nodes":[1]}]}`,
		"huge streams":     `{"classes":[{"name":"a","latency":"1ms","mbit":1,"streams":1000000}],"roots":{"count":2,"class":"a","nodes":[1]}}`,
	}
	for name, cfg := range cases {
		if _, err := ParseTopology([]byte(cfg)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestLoadTopologyMissing(t *testing.T) {
	if _, err := LoadTopology("/nonexistent/topo.json"); err == nil || !strings.Contains(err.Error(), "reading topology config") {
		t.Fatalf("err = %v", err)
	}
}

// Every cluster must reach every other via Next in a bounded number of hops,
// and each hop must correspond to a declared physical link.
func TestRoutesUseDeclaredLinks(t *testing.T) {
	b := NewBuilder()
	trunk := b.Class("trunk", 20*time.Millisecond, Mbit(155), 0)
	leafc := b.Class("leaf", 5*time.Millisecond, Mbit(45), 0)
	roots := b.Roots(4, Ring, trunk, 2)
	mid := b.Tier(roots, 3, leafc, 2)
	b.Tier(mid, 2, leafc, 1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := topo.WAN
	linked := map[[2]int]bool{}
	for _, l := range g.Links {
		linked[[2]int{l.A, l.B}] = true
		linked[[2]int{l.B, l.A}] = true
	}
	for u := 0; u < topo.Clusters; u++ {
		for d := 0; d < topo.Clusters; d++ {
			if u == d {
				continue
			}
			cur, hops := u, 0
			for cur != d {
				next := g.Next(cur, d)
				if !linked[[2]int{cur, next}] {
					t.Fatalf("route %d→%d uses undeclared link %d-%d", u, d, cur, next)
				}
				cur = next
				if hops++; hops > topo.Clusters {
					t.Fatalf("route %d→%d does not converge", u, d)
				}
			}
		}
	}
}

// TestNextAvoidingRing exercises the adaptive second-direction route: with
// one directed ring link cut, NextAvoiding walks the other way round, and the
// full-path scan prevents ping-ponging back toward the cut mid-route.
func TestNextAvoidingRing(t *testing.T) {
	b := NewBuilder()
	cl := b.Class("ring", time.Millisecond, Mbit(100), 0)
	b.Roots(5, Ring, cl, 1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := topo.WAN
	down := func(from, to int) bool { return from == 0 && to == 1 }
	// 0→1 direct is cut: go backward via 4.
	if next, ok := g.NextAvoiding(0, 1, down); !ok || next != 4 {
		t.Fatalf("NextAvoiding(0,1) = %d,%v, want 4,true", next, ok)
	}
	// Walk the whole detour 0→1; every hop must avoid the cut and converge.
	cur, hops := 0, 0
	for cur != 1 {
		next, ok := g.NextAvoiding(cur, 1, down)
		if !ok {
			t.Fatalf("route stuck at %d", cur)
		}
		if down(cur, next) {
			t.Fatalf("route crossed the cut link %d→%d", cur, next)
		}
		cur = next
		if hops++; hops > topo.Clusters {
			t.Fatal("detour does not converge (ping-pong)")
		}
	}
	// The reverse direction 1→0 is untouched and keeps the static route.
	if next, ok := g.NextAvoiding(1, 0, down); !ok || next != 0 {
		t.Fatalf("NextAvoiding(1,0) = %d,%v, want 0,true", next, ok)
	}
	// Both directions of both ring links around cluster 0 cut: unreachable.
	sealed := func(from, to int) bool {
		return from == 0 || to == 0
	}
	if _, ok := g.NextAvoiding(1, 0, sealed); ok {
		t.Fatal("fully sealed destination still reported reachable")
	}
}

// TestNextAvoidingTree pins tree-edge semantics: leaf uplinks have no
// alternate, so a cut uplink reports unreachable, while a healthy graph
// returns the static next hop.
func TestNextAvoidingTree(t *testing.T) {
	g := twoTier(t).WAN
	up := func(int, int) bool { return false }
	cases := []struct{ u, d, want int }{
		{1, 2, 0},
		{1, 4, 0},
		{0, 2, 2},
		{0, 4, 3},
	}
	for _, c := range cases {
		if next, ok := g.NextAvoiding(c.u, c.d, up); !ok || next != c.want {
			t.Fatalf("NextAvoiding(%d,%d) = %d,%v, want %d,true", c.u, c.d, next, ok, c.want)
		}
	}
	// Cut leaf 1's uplink: nothing reroutes a tree edge.
	cut := func(from, to int) bool { return from == 1 && to == 0 }
	if _, ok := g.NextAvoiding(1, 4, cut); ok {
		t.Fatal("cut uplink should be unreachable, no alternate exists")
	}
	// Root mesh detour: with trunk 0→3 cut on a 3-root mesh, traffic relays
	// through the third root.
	b := NewBuilder()
	trunk := b.Class("trunk", 20*time.Millisecond, Mbit(155), 0)
	b.Roots(3, Mesh, trunk, 1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g3 := topo.WAN
	cut03 := func(from, to int) bool { return from == 0 && to == 1 }
	if next, ok := g3.NextAvoiding(0, 1, cut03); !ok || next != 2 {
		t.Fatalf("mesh detour NextAvoiding(0,1) = %d,%v, want 2,true", next, ok)
	}
}

// TestTopologyGraph pins the WAN == nil shorthand: a full mesh of one "wan"
// class at Params' figures, direct routes; a declared graph is returned as is;
// figures no link class accepts are an error.
func TestTopologyGraph(t *testing.T) {
	par := DASParams()
	g, err := DAS(4, 15).Graph(par)
	if err != nil {
		t.Fatal(err)
	}
	want := LinkClass{Name: "wan", Latency: par.WANLatency, Bandwidth: par.WANBandwidth}
	if len(g.Classes) != 1 || g.Classes[0] != want || len(g.Links) != 6 {
		t.Fatalf("mesh graph: classes %+v, %d links", g.Classes, len(g.Links))
	}
	for u := 0; u < 4; u++ {
		for d := 0; d < 4; d++ {
			if u != d && g.Next(u, d) != d {
				t.Fatalf("Next(%d, %d) = %d, want the direct hop", u, d, g.Next(u, d))
			}
		}
	}
	declared := twoTier(t)
	if g, err := declared.Graph(par); err != nil || g != declared.WAN {
		t.Fatalf("declared graph not returned as is: %p vs %p, %v", g, declared.WAN, err)
	}
	par.WANBandwidth = 0
	if _, err := DAS(2, 2).Graph(par); err == nil {
		t.Fatal("zero WAN bandwidth accepted")
	}
	if _, err := DAS(0, 2).Graph(DASParams()); err == nil {
		t.Fatal("invalid topology accepted")
	}
}

func TestValidateRejectsDuplicateLink(t *testing.T) {
	topo := twoTier(t)
	l := topo.WAN.Links[0]
	topo.WAN.Links = append(topo.WAN.Links, Link{A: l.B, B: l.A, Class: l.Class})
	if err := topo.Validate(); err == nil || !strings.Contains(err.Error(), "duplicates") {
		t.Fatalf("duplicate link: err = %v", err)
	}
}

// TestValidateRejectsMalformedGraph: a hand-made or corrupted link graph is
// an error naming what is wrong with it.
func TestValidateRejectsMalformedGraph(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(topo *Topology)
		want    string
	}{
		{"no classes", func(topo *Topology) { topo.WAN.Classes = nil }, "no link classes"},
		{"cluster count", func(topo *Topology) { topo.Clusters--; topo.Sizes = topo.Sizes[1:] }, "routing tables sized for"},
		{"no roots", func(topo *Topology) { topo.WAN.roots = nil }, "no root tier"},
		{"self link", func(topo *Topology) { topo.WAN.Links[0].B = topo.WAN.Links[0].A }, "connects invalid clusters"},
		{"class", func(topo *Topology) { topo.WAN.Links[0].Class = len(topo.WAN.Classes) }, "uses invalid class"},
	} {
		topo := twoTier(t)
		tc.corrupt(&topo)
		if err := topo.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
