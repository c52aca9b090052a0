//go:build !race

// Alloc-regression tests for the sparse WAN data path: once the pools and
// the pipes' lanes are warm, steady-state sends — LAN, mesh
// WAN, multi-hop tiered WAN, and framed transport WAN — must not allocate.
// A change that reintroduces per-message allocation (per-pair tables, map
// churn on the pipe index, unpooled hop records) fails here long before it
// shows up in the benchmarks.
//
// Excluded under the race detector: instrumentation inflates allocation
// counts and these budgets are meaningless there.
package netsim

import (
	"testing"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/sim"
)

// netStep returns a function that sends one message and drains the engine,
// so everything the send schedules (gateway hops, pipe transits, deliveries)
// is charged to that step.
func netStep(e *sim.Engine, n *Network, from, to cluster.NodeID, size int) func() {
	n.SetHandler(to, func(Msg) {})
	m := Msg{From: from, To: to, Kind: KindData, Size: size}
	return func() {
		n.Send(m)
		if err := e.Run(); err != nil {
			panic(err)
		}
	}
}

func allocBudget(t *testing.T, name string, step func(), budget float64) {
	t.Helper()
	for i := 0; i < 16; i++ {
		step() // warm pools, pipe lanes, egress queues and event free lists
	}
	if got := testing.AllocsPerRun(100, step); got > budget {
		t.Fatalf("%s: %.1f allocs/op, budget %.1f", name, got, budget)
	}
}

func TestAllocLANSend(t *testing.T) {
	e, n := build(1, 4)
	allocBudget(t, "lan send", netStep(e, n.Network, 0, 1, 1000), 0)
}

func TestAllocWANSendMesh(t *testing.T) {
	// The DAS fast path: one WAN hop on a mesh link.
	e, n := build(4, 4)
	allocBudget(t, "mesh wan send", netStep(e, n.Network, 0, 13, 1000), 0)
}

func TestAllocWANSendTiered(t *testing.T) {
	// Three hops (leaf, trunk, leaf) through two intermediate gateways: the
	// pooled transit record must carry the message the whole way without
	// allocating per hop.
	e, n := tieredTestNet(t, testParams(), 0)
	allocBudget(t, "tiered wan send", netStep(e, n.Network, 2, 6, 1000), 0)
}

func TestAllocWANSendTransport(t *testing.T) {
	// Framed path on the mesh: egress coalescing, frame transmit, reassembly.
	par := testParams()
	par.MaxFrameBytes = 32 << 10
	par.CoalesceWindow = 100 * time.Microsecond
	par.WANStreams = 4
	e := sim.NewEngine()
	n := New(e, cluster.DAS(4, 4), par)
	allocBudget(t, "transport wan send", netStep(e, n, 0, 13, 1000), 0)
}

func TestAllocWANSendTransportTiered(t *testing.T) {
	par := testParams()
	par.MaxFrameBytes = 32 << 10
	par.CoalesceWindow = 100 * time.Microsecond
	e, n := tieredTestNet(t, par, 2)
	allocBudget(t, "tiered transport send", netStep(e, n.Network, 2, 6, 1000), 0)
}
