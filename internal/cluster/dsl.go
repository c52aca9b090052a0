// Declarative wide-area topology DSL: tiered grids, stars, rings-of-stars,
// heterogeneous per-cluster sizes and named link classes, in the spirit of
// the ClusterBuilder topology language and Legrand et al.'s T0/T1 tiered-grid
// platforms (PAPERS.md).
//
// A platform is a tree of tiers. The root tier's clusters (tier 0) form the
// wide-area backbone, connected pairwise (Mesh) or cyclically (Ring); every
// other tier attaches `fanout` child clusters to each cluster of its parent
// tier, over a named link class {latency, bandwidth, streams}. The Builder
// assigns cluster IDs in depth-first order, so every subtree is a contiguous
// ID interval and next-hop routing is two comparisons plus a binary search
// (Graph.Next) — no per-pair tables anywhere.
//
// Build with the Go Builder, or load the equivalent JSON form (one config
// file per platform) via ParseTopology/LoadTopology.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// LinkClass is a named wide-area link type shared by many physical links.
type LinkClass struct {
	Name      string
	Latency   time.Duration // one-way gateway-to-gateway latency
	Bandwidth float64       // bytes/second per directed link
	Streams   int           // parallel pipes per directed link (0 = transport default)
}

// Link is one undirected wide-area link between two clusters' gateways. The
// network simulates each direction as an independent FIFO pipe (or stripe of
// pipes), like the paper's per-directed-pair ATM PVCs.
type Link struct {
	A, B  int // cluster indices
	Class int // index into Graph.Classes
}

// Interconnect selects how the root tier's clusters are wired to each other.
type Interconnect uint8

const (
	// Mesh links every pair of root clusters directly (the paper's DAS shape).
	Mesh Interconnect = iota
	// Ring links the root clusters in a cycle; traffic takes the shorter
	// direction (ties go forward), so bisection bandwidth is bounded.
	Ring
)

func (ic Interconnect) String() string {
	if ic == Ring {
		return "ring"
	}
	return "mesh"
}

// Graph is the wide-area link structure of a DSL-built topology: the link
// classes, the physical links, and the routing state the Builder derived
// from the tier tree. Construct it only through Builder or ParseTopology —
// the routing tables are unexported and Next depends on them.
type Graph struct {
	Classes []LinkClass
	Links   []Link

	parent   []int32    // cluster → parent cluster (-1 for root-tier clusters)
	sub      [][2]int32 // cluster → DFS subtree interval [lo, hi)
	children [][]int32  // cluster → child clusters, ascending (DFS order)
	roots    []int32    // root-tier clusters in interconnect order
	rootPos  []int32    // cluster → index of its root ancestor in roots
	ic       Interconnect
}

// Validate checks the graph's internal consistency against the cluster count.
func (g *Graph) Validate(nclusters int) error {
	if len(g.Classes) == 0 {
		return fmt.Errorf("cluster: topology graph has no link classes")
	}
	if len(g.parent) != nclusters || len(g.sub) != nclusters ||
		len(g.children) != nclusters || len(g.rootPos) != nclusters {
		return fmt.Errorf("cluster: topology graph routing tables sized for %d clusters, topology has %d", len(g.parent), nclusters)
	}
	if len(g.roots) == 0 {
		return fmt.Errorf("cluster: topology graph has no root tier")
	}
	linked := make(map[[2]int]bool, len(g.Links))
	for i, l := range g.Links {
		if l.A < 0 || l.A >= nclusters || l.B < 0 || l.B >= nclusters || l.A == l.B {
			return fmt.Errorf("cluster: link %d connects invalid clusters %d-%d", i, l.A, l.B)
		}
		if l.Class < 0 || l.Class >= len(g.Classes) {
			return fmt.Errorf("cluster: link %d uses invalid class %d", i, l.Class)
		}
		pair := [2]int{min(l.A, l.B), max(l.A, l.B)}
		if linked[pair] {
			return fmt.Errorf("cluster: link %d duplicates the link %d-%d", i, l.A, l.B)
		}
		linked[pair] = true
	}
	return nil
}

// Next returns the next cluster on the route from u toward d (u != d):
// down into the child subtree containing d, up to the parent, or across the
// root interconnect. Routes are unique and deterministic.
func (g *Graph) Next(u, d int) int {
	su := g.sub[u]
	if int32(d) >= su[0] && int32(d) < su[1] {
		// d is in u's subtree: descend into the child whose interval holds it.
		ch := g.children[u]
		lo, hi := 0, len(ch)
		for lo < hi {
			mid := (lo + hi) / 2
			if int32(d) >= g.sub[ch[mid]][1] {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return int(ch[lo])
	}
	if p := g.parent[u]; p >= 0 {
		return int(p)
	}
	// Root-to-root: mesh goes direct; a ring takes the shorter way round
	// (ties forward). A two-root ring degenerates to the direct link.
	if g.ic == Ring && len(g.roots) > 2 {
		i, j := int(g.rootPos[u]), int(g.rootPos[d])
		r := len(g.roots)
		fwd := (j - i + r) % r
		if fwd <= r-fwd {
			return int(g.roots[(i+1)%r])
		}
		return int(g.roots[(i-1+r)%r])
	}
	return int(g.roots[g.rootPos[d]])
}

// NextAvoiding returns the next cluster on a route from u toward d (u != d)
// that avoids links the down predicate reports as failed, preferring the
// primary route (Next) when it is viable. down is consulted with directed
// (from, to) cluster pairs and must be a pure function of its arguments for
// the call's duration.
//
// Alternates exist only where the topology has redundancy: a ring backbone
// can go the other way round, a mesh backbone can detour through a third
// root. The choice is made by scanning the whole candidate backbone path —
// not just the first hop — so a cut deep in the preferred direction turns
// the route around immediately instead of bouncing traffic between the two
// neighbors of the cut (the hop-greedy ping-pong failure mode). Tree edges
// (a cluster's uplink or a descent into a subtree) have no alternate: when
// such a link is down there is no route and ok is false, which tells the
// caller to hold the traffic until the link heals.
func (g *Graph) NextAvoiding(u, d int, down func(from, to int) bool) (next int, ok bool) {
	su := g.sub[u]
	if int32(d) >= su[0] && int32(d) < su[1] {
		// Descent into u's subtree: the tree edge is the only way down.
		next = g.Next(u, d)
		if down(u, next) {
			return 0, false
		}
		return next, true
	}
	if p := g.parent[u]; p >= 0 {
		// Ascent toward the backbone: the uplink is the only way up.
		if down(u, int(p)) {
			return 0, false
		}
		return int(p), true
	}
	// u is a root: cross the interconnect toward d's root.
	r := len(g.roots)
	i, j := int(g.rootPos[u]), int(g.rootPos[d])
	if g.ic == Ring && r > 2 {
		fwd := (j - i + r) % r
		bwd := r - fwd
		fwdUp := g.ringUp(i, fwd, +1, down)
		bwdUp := g.ringUp(i, bwd, -1, down)
		switch {
		case fwdUp && (fwd <= bwd || !bwdUp):
			return int(g.roots[(i+1)%r]), true
		case bwdUp:
			return int(g.roots[(i-1+r)%r]), true
		}
		return 0, false
	}
	rd := int(g.roots[j])
	if !down(u, rd) {
		return rd, true
	}
	// Mesh detour: one intermediate root with both legs up, scanned in
	// interconnect order so the choice is deterministic.
	for w := 0; w < r; w++ {
		cand := int(g.roots[w])
		if cand == u || cand == rd {
			continue
		}
		if !down(u, cand) && !down(cand, rd) {
			return cand, true
		}
	}
	return 0, false
}

// ringUp reports whether every directed ring link on the nsteps-hop path
// from root index i in direction dir (+1 forward, -1 backward) is up.
func (g *Graph) ringUp(i, nsteps, dir int, down func(from, to int) bool) bool {
	r := len(g.roots)
	cur := i
	for s := 0; s < nsteps; s++ {
		nxt := (cur + dir + r) % r
		if down(int(g.roots[cur]), int(g.roots[nxt])) {
			return false
		}
		cur = nxt
	}
	return true
}

// Roots returns the root-tier clusters in interconnect order.
func (g *Graph) Roots() []int32 { return g.roots }

// tierSpec is one tier of the Builder's platform tree.
type tierSpec struct {
	parent int   // parent tier index; -1 for the root tier
	count  int   // root tier: total clusters; otherwise children per parent cluster
	class  int   // link class toward the parent (root tier: interconnect class)
	nodes  []int // per-cluster compute-node counts, cycled across the tier
	ic     Interconnect
}

// Platform descriptions are outside input (config files): a size no run could
// hold must be an error, not an out-of-memory crash while expanding it.
const (
	maxClusters = 1 << 16 // clusters, and root-mesh links, per platform
	maxStreams  = 256     // parallel pipes per directed link
)

// Builder assembles a tiered wide-area platform. Methods record the first
// error; Build reports it.
type Builder struct {
	classes []LinkClass
	tiers   []tierSpec
	err     error
}

// NewBuilder returns an empty platform builder.
func NewBuilder() *Builder { return &Builder{} }

func (b *Builder) fail(format string, args ...any) int {
	if b.err == nil {
		b.err = fmt.Errorf("cluster: "+format, args...)
	}
	return -1
}

// Class declares a link class and returns its handle.
func (b *Builder) Class(name string, latency time.Duration, bandwidth float64, streams int) int {
	if name == "" {
		return b.fail("link class needs a name")
	}
	if latency <= 0 || bandwidth <= 0 || streams < 0 || streams > maxStreams {
		return b.fail("link class %q needs positive latency and bandwidth and 0..%d streams (got %v, %g, %d)",
			name, maxStreams, latency, bandwidth, streams)
	}
	b.classes = append(b.classes, LinkClass{Name: name, Latency: latency, Bandwidth: bandwidth, Streams: streams})
	return len(b.classes) - 1
}

// Roots declares the root tier: count backbone clusters wired by ic over the
// given link class, with per-cluster node counts cycled from nodes. It
// returns the tier handle for attaching child tiers.
func (b *Builder) Roots(count int, ic Interconnect, class int, nodes ...int) int {
	if len(b.tiers) > 0 {
		return b.fail("Roots declared twice")
	}
	return b.tier(-1, count, ic, class, nodes)
}

// Tier attaches fanout child clusters to every cluster of the parent tier,
// linked to their parent over the given class. It returns the tier handle.
func (b *Builder) Tier(parent, fanout, class int, nodes ...int) int {
	if parent < 0 || parent >= len(b.tiers) {
		return b.fail("Tier attached to invalid parent tier %d", parent)
	}
	return b.tier(parent, fanout, Mesh, class, nodes)
}

func (b *Builder) tier(parent, count int, ic Interconnect, class int, nodes []int) int {
	if b.err != nil {
		return -1
	}
	if count <= 0 || count > maxClusters {
		return b.fail("tier needs a cluster count in 1..%d, got %d", maxClusters, count)
	}
	if class < 0 || class >= len(b.classes) {
		return b.fail("tier uses undeclared link class %d", class)
	}
	if len(nodes) == 0 {
		return b.fail("tier needs at least one node count")
	}
	for _, s := range nodes {
		if s <= 0 {
			return b.fail("tier has non-positive node count %d", s)
		}
	}
	b.tiers = append(b.tiers, tierSpec{
		parent: parent, count: count, class: class, ic: ic,
		nodes: append([]int(nil), nodes...),
	})
	return len(b.tiers) - 1
}

// Build expands the tier tree into a Topology with per-cluster sizes and the
// wide-area Graph, cluster IDs assigned depth-first so subtrees are
// contiguous intervals.
func (b *Builder) Build() (Topology, error) {
	if b.err != nil {
		return Topology{}, b.err
	}
	if len(b.tiers) == 0 {
		return Topology{}, fmt.Errorf("cluster: no Roots tier declared")
	}
	childTiers := make([][]int, len(b.tiers))
	for i := 1; i < len(b.tiers); i++ {
		p := b.tiers[i].parent
		childTiers[p] = append(childTiers[p], i)
	}
	// Size the platform before expanding it. A tier's parent precedes it, so
	// one reverse pass sees every child tier's subtree size first; each factor
	// is at most maxClusters, so the products cannot overflow.
	subtree := make([]int, len(b.tiers)) // clusters under (and including) one cluster of the tier
	for i := len(b.tiers) - 1; i >= 0; i-- {
		subtree[i] = 1
		for _, ct := range childTiers[i] {
			subtree[i] += b.tiers[ct].count * subtree[ct]
		}
		if subtree[i] > maxClusters {
			subtree[i] = maxClusters + 1
		}
	}
	roots := b.tiers[0].count
	if roots*subtree[0] > maxClusters || (b.tiers[0].ic == Mesh && roots*(roots-1)/2 > maxClusters) {
		return Topology{}, fmt.Errorf("cluster: platform exceeds %d clusters or root-mesh links", maxClusters)
	}
	g := &Graph{Classes: append([]LinkClass(nil), b.classes...), ic: b.tiers[0].ic}
	var sizes []int
	tierSeq := make([]int, len(b.tiers))
	var expand func(tier, par int) int
	expand = func(tier, par int) int {
		id := len(sizes)
		ts := &b.tiers[tier]
		sizes = append(sizes, ts.nodes[tierSeq[tier]%len(ts.nodes)])
		tierSeq[tier]++
		g.parent = append(g.parent, int32(par))
		g.children = append(g.children, nil)
		g.sub = append(g.sub, [2]int32{int32(id), 0})
		g.rootPos = append(g.rootPos, 0)
		if par >= 0 {
			g.children[par] = append(g.children[par], int32(id))
			g.Links = append(g.Links, Link{A: par, B: id, Class: ts.class})
		}
		for _, ct := range childTiers[tier] {
			for j := 0; j < b.tiers[ct].count; j++ {
				expand(ct, id)
			}
		}
		g.sub[id][1] = int32(len(sizes))
		return id
	}
	for r := 0; r < b.tiers[0].count; r++ {
		g.roots = append(g.roots, int32(expand(0, -1)))
	}
	for i, root := range g.roots {
		for id := g.sub[root][0]; id < g.sub[root][1]; id++ {
			g.rootPos[id] = int32(i)
		}
	}
	// Root interconnect links: mesh = every pair, ring = a cycle (two roots
	// share one link either way, one root needs none).
	rc := b.tiers[0].class
	switch {
	case len(g.roots) == 2:
		g.Links = append(g.Links, Link{A: int(g.roots[0]), B: int(g.roots[1]), Class: rc})
	case len(g.roots) > 2 && g.ic == Ring:
		for i := range g.roots {
			g.Links = append(g.Links, Link{A: int(g.roots[i]), B: int(g.roots[(i+1)%len(g.roots)]), Class: rc})
		}
	case len(g.roots) > 2:
		for i := 0; i < len(g.roots); i++ {
			for j := i + 1; j < len(g.roots); j++ {
				g.Links = append(g.Links, Link{A: int(g.roots[i]), B: int(g.roots[j]), Class: rc})
			}
		}
	}
	topo := Topology{Clusters: len(sizes), Sizes: sizes, WAN: g}
	return topo, topo.Validate()
}

// JSON configuration form, consumed by dasbench -topo. Tiers are
// a linear chain (tier i hangs off tier i-1), which covers tiered grids,
// stars and rings-of-stars; arbitrary branching needs the Go Builder.
//
//	{
//	  "classes": [{"name": "backbone", "latency": "20ms", "mbit": 155, "streams": 2}],
//	  "roots":   {"count": 4, "interconnect": "ring", "class": "backbone", "nodes": [8]},
//	  "tiers":   [{"fanout": 8, "class": "regional", "nodes": [4, 2]}]
//	}
type jsonClass struct {
	Name    string  `json:"name"`
	Latency string  `json:"latency"` // Go duration string, e.g. "20ms"
	Mbit    float64 `json:"mbit"`    // megabits/second
	Streams int     `json:"streams"` // optional parallel pipes per link
}

type jsonRoots struct {
	Count        int    `json:"count"`
	Interconnect string `json:"interconnect"` // "mesh" (default) or "ring"
	Class        string `json:"class"`
	Nodes        []int  `json:"nodes"`
}

type jsonTier struct {
	Fanout int    `json:"fanout"`
	Class  string `json:"class"`
	Nodes  []int  `json:"nodes"`
}

type jsonTopo struct {
	Classes []jsonClass `json:"classes"`
	Roots   jsonRoots   `json:"roots"`
	Tiers   []jsonTier  `json:"tiers"`
}

// ParseTopology builds a Topology from the JSON configuration form. Unknown
// fields are errors, so typos in config files fail loudly.
func ParseTopology(data []byte) (Topology, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var cfg jsonTopo
	if err := dec.Decode(&cfg); err != nil {
		return Topology{}, fmt.Errorf("cluster: parsing topology config: %w", err)
	}
	if len(cfg.Classes) == 0 {
		return Topology{}, fmt.Errorf("cluster: topology config declares no link classes")
	}
	b := NewBuilder()
	byName := make(map[string]int, len(cfg.Classes))
	for _, c := range cfg.Classes {
		if _, dup := byName[c.Name]; dup {
			return Topology{}, fmt.Errorf("cluster: duplicate link class %q", c.Name)
		}
		lat, err := time.ParseDuration(c.Latency)
		if err != nil {
			return Topology{}, fmt.Errorf("cluster: link class %q latency: %w", c.Name, err)
		}
		byName[c.Name] = b.Class(c.Name, lat, Mbit(c.Mbit), c.Streams)
	}
	class := func(name string) (int, error) {
		id, ok := byName[name]
		if !ok {
			return 0, fmt.Errorf("cluster: undeclared link class %q", name)
		}
		return id, nil
	}
	var ic Interconnect
	switch cfg.Roots.Interconnect {
	case "", "mesh":
		ic = Mesh
	case "ring":
		ic = Ring
	default:
		return Topology{}, fmt.Errorf("cluster: unknown interconnect %q (want mesh or ring)", cfg.Roots.Interconnect)
	}
	rc, err := class(cfg.Roots.Class)
	if err != nil {
		return Topology{}, err
	}
	tier := b.Roots(cfg.Roots.Count, ic, rc, cfg.Roots.Nodes...)
	for i, t := range cfg.Tiers {
		tc, err := class(t.Class)
		if err != nil {
			return Topology{}, fmt.Errorf("cluster: tier %d: %w", i+1, err)
		}
		tier = b.Tier(tier, t.Fanout, tc, t.Nodes...)
	}
	return b.Build()
}

// LoadTopology reads and parses a JSON topology configuration file.
func LoadTopology(path string) (Topology, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Topology{}, fmt.Errorf("cluster: reading topology config: %w", err)
	}
	return ParseTopology(data)
}
