package harness

import (
	"time"

	"albatross/internal/sim"
)

// ShardUsage aggregates the per-LP window counters of every sharded run one
// application executed in one Session: windows and events are
// summed per LP index, fence waits accumulate wall-clock time, and the
// run-level virtual and wall-clock durations are summed so derived rates
// (window width, windows per simulated second, fence-wait share) can be
// reported. The counters are observability only (sim.LPStats is excluded
// from the byte-identity surface); dasbench renders them under -shards so
// the engine's synchronization overhead is observable rather than inferred.
type ShardUsage struct {
	App     string
	Runs    int
	Virtual time.Duration // summed virtual elapsed time across runs
	Wall    time.Duration // summed wall-clock run time across runs
	LPs     []sim.LPStats
}

// AvgWindowWidth is the mean virtual-time span one window of the given LP
// advanced: summed virtual time over the LP's window count. Wider windows
// mean fewer fences per simulated second — the quantity the per-route
// lookahead matrix exists to maximize.
func (u ShardUsage) AvgWindowWidth(lp sim.LPStats) time.Duration {
	if lp.Windows == 0 {
		return 0
	}
	return time.Duration(int64(u.Virtual) / int64(lp.Windows))
}

// WindowsPerSimSec is the LP's window rate per simulated second.
func (u ShardUsage) WindowsPerSimSec(lp sim.LPStats) float64 {
	if u.Virtual <= 0 {
		return 0
	}
	return float64(lp.Windows) / u.Virtual.Seconds()
}

// FenceWaitShare is the fraction of the run's wall clock the LP spent
// blocked on the fence barrier (0 when wall time was not recorded).
func (u ShardUsage) FenceWaitShare(lp sim.LPStats) float64 {
	if u.Wall <= 0 {
		return 0
	}
	return float64(lp.FenceWait) / float64(u.Wall)
}
