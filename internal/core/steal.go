package core

import (
	"albatross/internal/cluster"
)

// Work-stealing victim orders for IDA*'s distributed job queue (paper
// Section 4.6).

// StealOrderOriginal returns the victim sequence of the paper's original
// program: offsets 1, 2, 4, 8, … (powers of two below p) added to the own
// rank modulo p. The paper notes this works poorly for the highest-numbered
// process of a cluster, which starts stealing in remote clusters first.
func StealOrderOriginal(topo cluster.Topology, self cluster.NodeID) []cluster.NodeID {
	p := topo.Compute()
	var out []cluster.NodeID
	for off := 1; off < p; off *= 2 {
		v := cluster.NodeID((int(self) + off) % p)
		if v != self {
			out = append(out, v)
		}
	}
	return out
}

// StealOrderLocalFirst returns the optimized victim sequence: machines of
// the thief's own cluster first (cheap intracluster steals), then the
// remote machines, both in increasing-offset order.
func StealOrderLocalFirst(topo cluster.Topology, self cluster.NodeID) []cluster.NodeID {
	p := topo.Compute()
	var local, remote []cluster.NodeID
	for off := 1; off < p; off++ {
		v := cluster.NodeID((int(self) + off) % p)
		if topo.SameCluster(self, v) {
			local = append(local, v)
		} else {
			remote = append(remote, v)
		}
	}
	return append(local, remote...)
}

// IdleMap tracks which workers are known to be idle — the paper's
// "remember empty" heuristic. The IDA* program already broadcasts a message
// whenever a worker runs out of work or becomes active again (for
// termination detection), so each process can maintain this map for free and
// skip steal attempts at known-idle victims.
type IdleMap struct {
	idle []bool
}

// NewIdleMap creates a map for p workers, all initially busy.
func NewIdleMap(p int) *IdleMap { return &IdleMap{idle: make([]bool, p)} }

// Set records worker r's idleness.
func (m *IdleMap) Set(r int, idle bool) { m.idle[r] = idle }

// Idle reports whether worker r is known to be idle.
func (m *IdleMap) Idle(r int) bool { return m.idle[r] }

// AllIdle reports whether every worker is known to be idle.
func (m *IdleMap) AllIdle() bool {
	for _, b := range m.idle {
		if !b {
			return false
		}
	}
	return true
}
