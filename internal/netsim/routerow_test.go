package netsim

import (
	"slices"
	"testing"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/rng"
	"albatross/internal/sim"
)

// byteReader hands out a fuzz input one byte at a time, then zeros.
type byteReader []byte

func (r *byteReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// routeCase decodes data into a platform — a ring (3–12 roots) or mesh
// backbone, optionally with one child tier — and link-down windows on its
// physical links: starts drawn from a few shared instants (0 among them), so
// windows overlap and share edges, and lengths that may be empty or
// permanent.
func routeCase(t *testing.T, data []byte) (cluster.Topology, []linkWindow) {
	r := byteReader(data)
	b := cluster.NewBuilder()
	cl := b.Class("backbone", time.Millisecond, 1e6, 0)
	ic := cluster.Ring
	if r.next()&1 == 1 {
		ic = cluster.Mesh
	}
	roots := b.Roots(3+r.next()%10, ic, cl, 1)
	if fanout := r.next() % 3; fanout > 0 {
		b.Tier(roots, fanout, cl, 1)
	}
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	links := topo.WAN.Links
	var downs []linkWindow
	for k := r.next() % 8; k > 0; k-- {
		l := links[r.next()%len(links)]
		start := time.Duration(r.next()%4) * time.Millisecond
		var dur time.Duration
		switch d := r.next() % 6; d {
		case 0:
			dur = forever - start
		case 1: // empty: two equal edges, never live
		default:
			dur = time.Duration(d-1) * time.Millisecond
		}
		dir := r.next() % 3
		if dir != 1 {
			downs = append(downs, linkWindow{l.A, l.B, start, dur})
		}
		if dir != 0 {
			downs = append(downs, linkWindow{l.B, l.A, start, dur})
		}
	}
	return topo, downs
}

// checkRouteRows holds every source cluster's route row to a direct route
// search: at nondecreasing instants that include each window edge and the
// instant before it, the row's (next, reroute, none) must equal
// Graph.NextAvoiding under LinkDown at that instant (Graph.Next without
// windows).
func checkRouteRows(t *testing.T, data []byte) {
	topo, downs := routeCase(t, data)
	n := New(sim.NewEngine(), topo, testParams())
	p := &testPolicy{downs: downs}
	n.SetFaultPolicy(p)
	g := topo.WAN
	ch := p.LinkChanges()
	at := []time.Duration{0}
	for i, c := range ch {
		at = append(at, c-1, c)
		if i+1 < len(ch) {
			at = append(at, c+(ch[i+1]-c)/2)
		}
	}
	at = slices.DeleteFunc(at, func(x time.Duration) bool { return x < 0 })
	slices.Sort(at)
	for _, now := range at {
		down := func(a, b int) bool { return p.LinkDown(now, a, b) }
		for c := 0; c < topo.Clusters; c++ {
			for d := 0; d < topo.Clusters; d++ {
				if c == d {
					continue
				}
				next, ok := g.Next(c, d), true
				if downs != nil {
					next, ok = g.NextAvoiding(c, d, down)
				}
				r := n.route(c, d, now)
				got, want := -1, -1
				if r.link != 0 {
					got = int(n.adj[c][r.link-1].to)
				}
				if ok {
					want = next
				}
				if got != want || r.none != !ok || r.reroute != (ok && next != g.Next(c, d)) {
					t.Fatalf("%v with windows %v: route %d->%d at %v = (next %d, reroute %v, none %v), direct search = (next %d, reroute %v, none %v)",
						topo, downs, c, d, now, got, r.reroute, r.none, want, ok && next != g.Next(c, d), !ok)
				}
			}
		}
	}
}

// routeSeeds: a static ring, one cut ring segment healing mid-run, a
// permanent cut beside a window starting at 0 on a tiered mesh, and
// overlapping windows sharing edges.
var routeSeeds = [][]byte{
	{},
	{0, 6, 0, 1, 0, 1, 3, 2},
	{1, 3, 1, 2, 2, 0, 0, 1, 5, 0, 2, 2},
	{0, 9, 2, 4, 1, 1, 4, 0, 1, 2, 2, 1, 2, 0, 7, 0, 3, 0, 8, 3, 5, 1},
}

func FuzzRouteEpochs(f *testing.F) {
	for _, s := range routeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			t.Skip()
		}
		checkRouteRows(t, data)
	})
}

// TestRouteEpochsRandomCases runs the fuzz target's check over generated
// inputs, so the default suite covers more than the seeds.
func TestRouteEpochsRandomCases(t *testing.T) {
	r := rng.New(35)
	for i := 0; i < 2000; i++ {
		data := make([]byte, 4+4*r.Intn(8))
		for j := range data {
			data[j] = byte(r.Intn(256))
		}
		checkRouteRows(t, data)
	}
}

// BenchmarkRouteHop measures one WAN hop on a ring9-shaped platform (nine
// backbone roots on a ring, the bench's chaos-ring9 shape): every gateway
// keeps one message in flight, each delivery answered by a message to the
// gateway four clusters on, with and without segment 0 cut in both
// directions for the whole run. It reports wall nanoseconds per hop the
// pipes carried, so a route that detours the long way round costs more hops,
// not more per hop.
func BenchmarkRouteHop(b *testing.B) {
	for _, cut := range []bool{false, true} {
		name := "static"
		if cut {
			name = "cut"
		}
		b.Run(name, func(b *testing.B) {
			bld := cluster.NewBuilder()
			bb := bld.Class("backbone", 20*time.Millisecond, cluster.Mbit(155), 2)
			bld.Roots(9, cluster.Ring, bb, 2)
			topo, err := bld.Build()
			if err != nil {
				b.Fatal(err)
			}
			e := sim.NewEngine()
			n := New(e, topo, cluster.DASParams())
			if cut {
				r := topo.WAN.Roots()
				a, z := int(r[0]), int(r[1])
				n.SetFaultPolicy(&testPolicy{downs: append(downPair(a, z, 0, forever), downPair(z, a, 0, forever)...)})
			}
			left := b.N
			for c := 0; c < topo.Clusters; c++ {
				to := n.gateways[(c+4)%topo.Clusters]
				n.SetHandler(n.gateways[c], func(m Msg) {
					if left > 0 {
						left--
						n.Send(Msg{From: m.To, To: to, Kind: KindData, Size: 64})
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for c := 0; c < topo.Clusters; c++ {
				n.Send(Msg{From: n.gateways[c], To: n.gateways[(c+4)%topo.Clusters], Kind: KindData, Size: 64})
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
