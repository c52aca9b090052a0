package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childResult is what one workload process reports to the orchestrator.
type childResult struct {
	SetupS    float64              `json:"setup_s"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Errors    []string             `json:"errors,omitempty"`
	Samples   map[string][]float64 `json:"samples,omitempty"` // per timed pass
	PeakRSSMB float64              `json:"peak_rss_mb"`
	Digests   map[string]string    `json:"digests,omitempty"` // run -> metrics digest
	Layers    map[string]float64   `json:"layers,omitempty"`  // traced run only
}

// Pass counts. A timed process keeps passing until both the pass floor and
// its share of --seconds are met; a traced run makes a few untraced passes
// (the base of trace.overhead_share) and then profiled passes until both
// its floors are met.
const (
	minTimedPasses  = 2
	untracedPasses  = 2
	minTracedPasses = 3
	minTracedTime   = 3 * time.Second
	maxErrors       = 8
)

// passStats is the host-side cost of one pass plus its runs' outcomes.
type passStats struct {
	wall, virtual time.Duration
	mallocs       uint64
	allocBytes    uint64
	user, sys     time.Duration
	gcCycles      uint32
	gcPause       time.Duration
	outcomes      []runOutcome
}

// session is one workload process: the environment, the reference digests
// every later run must reproduce, and the failure tally.
type session struct {
	env       *env
	res       childResult
	reference map[string]uint64 // run -> digest every pass must repeat
}

func (s *session) fail(format string, args ...any) {
	s.res.Failed++
	if len(s.res.Errors) < maxErrors {
		s.res.Errors = append(s.res.Errors, fmt.Sprintf(format, args...))
	}
}

// check tallies one run: it fails on an engine or verifier error or on a
// digest that differs from the reference for its spec.
func (s *session) check(o runOutcome) {
	s.res.Attempted++
	name := o.spec.String()
	switch want, ok := s.reference[name]; {
	case o.err != nil:
		s.fail("%v", o.err)
	case !ok:
		s.reference[name] = o.digest
	case want != o.digest:
		s.fail("%s: digest %016x differs from reference %016x", name, o.digest, want)
	}
}

func (s *session) pass(n int, tr *tracer) passStats {
	var ps passStats
	var m0, m1 runtime.MemStats
	var r0, r1 syscall.Rusage
	runtime.ReadMemStats(&m0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &r0) // cannot fail with these arguments
	t0 := time.Now()
	for _, rs := range s.env.w.runs {
		o := s.env.execRun(rs, s.env.w.shards, tr, n)
		ps.virtual += o.virtual
		ps.outcomes = append(ps.outcomes, o)
	}
	ps.wall = time.Since(t0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &r1)
	runtime.ReadMemStats(&m1)
	ps.mallocs, ps.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	ps.user = tvDur(r1.Utime) - tvDur(r0.Utime)
	ps.sys = tvDur(r1.Stime) - tvDur(r0.Stime)
	ps.gcCycles = m1.NumGC - m0.NumGC
	ps.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	for _, o := range ps.outcomes {
		s.check(o)
	}
	return ps
}

func tvDur(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

// runChild is a workload process. Set-up runs from process start to the
// first timed pass: on the sharded workload the sequential reference
// digests, then one untimed warm-up pass that loads the topology, fills the
// applications' memoized sequential references and the pools, and grows the
// heap. mode says what follows: the timed passes ("timed") or the traced run
// ("traced"), whose trace file goes to outDir.
func runChild(start time.Time, w *workload, seed uint64, mode string, seconds float64, outDir string) (childResult, error) {
	e, err := newEnv(w, seed)
	if err != nil {
		return childResult{}, err
	}
	s := &session{env: e, reference: map[string]uint64{}}
	if w.shards > 0 {
		for _, rs := range w.runs {
			s.check(e.execRun(rs, 0, nil, -1))
		}
	}
	s.pass(0, nil)
	s.res.SetupS = time.Since(start).Seconds()

	switch mode {
	case "timed":
		s.timed(time.Duration(seconds * float64(time.Second)))
	case "traced":
		if err := s.traced(minTracedTime, filepath.Join(outDir, w.name+".trace.json")); err != nil {
			return s.res, err
		}
	default:
		return s.res, fmt.Errorf("unknown child mode %q", mode)
	}
	s.res.Digests = map[string]string{}
	for name, d := range s.reference {
		s.res.Digests[name] = fmt.Sprintf("%016x", d)
	}
	s.res.PeakRSSMB, err = peakRSSMB()
	return s.res, err
}

func (s *session) timed(d time.Duration) {
	samples := map[string][]float64{}
	begin := time.Now()
	for n := 1; n <= minTimedPasses || time.Since(begin) < d; n++ {
		ps := s.pass(n, nil)
		samples["wall_s"] = append(samples["wall_s"], ps.wall.Seconds())
		samples["simsec_per_wallsec"] = append(samples["simsec_per_wallsec"], ps.virtual.Seconds()/ps.wall.Seconds())
		samples["allocs_per_pass"] = append(samples["allocs_per_pass"], float64(ps.mallocs))
		samples["alloc_mb_per_pass"] = append(samples["alloc_mb_per_pass"], float64(ps.allocBytes)/1e6)
	}
	s.res.Samples = samples
}

// traced makes the traced run: untraced passes for the overhead base, then
// passes under a CPU profile with spans and counters on, then the
// workload's isolation rungs. Violated invariants count as failures.
func (s *session) traced(minTime time.Duration, tracePath string) error {
	var base []float64
	for n := 1; n <= untracedPasses; n++ {
		base = append(base, s.pass(n, nil).wall.Seconds())
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	tr := newTracer()
	var passes []passStats
	begin := time.Now()
	for n := 0; n < minTracedPasses || time.Since(begin) < minTime; n++ {
		passes = append(passes, s.pass(n, tr))
	}
	pprof.StopCPUProfile()

	layers := map[string]float64{}
	for _, m := range perLayer {
		layers[m.name] = 0
	}
	s.res.Layers = layers

	// 1. spans
	spanSamples := map[string][]float64{}
	for n := range passes {
		sums, cover := tr.passSums(n)
		if cover < 0.95 {
			s.fail("pass %d: span children cover only %.3f of the run spans", n, cover)
		}
		for name, d := range sums {
			spanSamples[name] = append(spanSamples[name], float64(d)/float64(time.Millisecond))
		}
	}
	for name, v := range spanSamples {
		layers[name+"_ms"] = median(v)
	}
	var walls []float64
	for _, ps := range passes {
		walls = append(walls, ps.wall.Seconds())
	}
	layers["trace.overhead_share"] = median(walls)/median(base) - 1

	// 2. counts
	s.countMetrics(passes, layers["sim.run_ms"], layers)

	// 3. CPU-profile shares
	flat, err := flatSamples(prof.Bytes())
	if err != nil {
		return err
	}
	sum := 0.0
	for b, share := range cpuShares(flat) {
		layers[b+".cpu_share"] = share
		sum += share
	}
	if sum < 0.99 || sum > 1.01 {
		s.fail("CPU shares sum to %.4f", sum)
	}

	// 4. isolation rungs
	vals, err := runRungs(s.env.w.rungs)
	if err != nil {
		return err
	}
	for name, v := range vals {
		layers[name] = v
	}

	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return err
	}
	return tr.writeChrome(tracePath)
}

// countMetrics turns each pass's public counters into per-layer values and
// reports the median over passes. On the sequential engine everything that
// is not host time must repeat exactly from pass to pass.
func (s *session) countMetrics(passes []passStats, simRunMS float64, layers map[string]float64) {
	var all []map[string]float64
	for _, ps := range passes {
		all = append(all, passCounts(ps))
	}
	for name := range all[0] {
		var v []float64
		for n, pc := range all {
			v = append(v, pc[name])
			hostSide := strings.HasPrefix(name, "runtime.") || name == "sim.fence_wait_share"
			if s.env.w.shards == 0 && !hostSide && pc[name] != all[0][name] {
				s.fail("pass %d: %s = %v differs from pass 0 (%v) on the sequential engine", n, name, pc[name], all[0][name])
			}
		}
		layers[name] = median(v)
	}
	layers["sim.ns_per_event"] = ratio(simRunMS*1e6, layers["sim.events"])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// passCounts sums one pass's run counters into metric values.
func passCounts(ps passStats) map[string]float64 {
	var t runCounts
	var capacity, lpMax, lpMean float64
	for _, o := range ps.outcomes {
		c := o.counts
		t.events += c.events
		t.busy += c.busy
		capacity += float64(c.computeNodes) * o.virtual.Seconds()
		t.windows += c.windows
		t.fences += c.fences
		t.idleWindows += c.idleWindows
		t.fenceWait += c.fenceWait
		if n := len(c.lpEvents); n > 0 {
			// fence wait is spread over the LPs for the time they ran
			t.runWall += time.Duration(n) * c.runWall
			var max, sum uint64
			for _, ev := range c.lpEvents {
				sum += ev
				if ev > max {
					max = ev
				}
			}
			lpMax += float64(max)
			lpMean += float64(sum) / float64(n)
		}
		t.intraMsgs += c.intraMsgs
		t.interMsgs += c.interMsgs
		t.interBytes += c.interBytes
		t.wanFrames += c.wanFrames
		t.framedMsgs += c.framedMsgs
		t.wanBusy += c.wanBusy
		if c.wanP99 > t.wanP99 {
			t.wanP99 = c.wanP99
		}
		t.reroutes += c.reroutes
		t.held += c.held
		t.holdDrops += c.holdDrops
		t.rpcs += c.rpcs
		t.bcasts += c.bcasts
		t.dataMsgs += c.dataMsgs
		t.relWrapped += c.relWrapped
		t.relRetransmits += c.relRetransmits
		t.inspected += c.inspected
		t.drops += c.drops
	}
	cpu := (ps.user + ps.sys).Seconds()
	return map[string]float64{
		"sim.events":             float64(t.events),
		"sim.virtual_s":          ps.virtual.Seconds(),
		"sim.virtual_busy_share": ratio(t.busy.Seconds(), capacity),
		"sim.windows":            float64(t.windows),
		"sim.fences":             float64(t.fences),
		"sim.idle_window_share":  ratio(float64(t.idleWindows), float64(t.windows)),
		"sim.fence_wait_share":   ratio(t.fenceWait.Seconds(), t.runWall.Seconds()),
		"sim.lp_event_imbalance": ratio(lpMax, lpMean),
		"netsim.intra_msgs":      float64(t.intraMsgs),
		"netsim.inter_msgs":      float64(t.interMsgs),
		"netsim.inter_mb":        float64(t.interBytes) / 1e6,
		"netsim.wan_frames":      float64(t.wanFrames),
		"netsim.packing_ratio":   ratio(float64(t.framedMsgs), float64(t.wanFrames)),
		"netsim.wan_busy_s":      t.wanBusy.Seconds(),
		"netsim.wan_p99_wait_ms": float64(t.wanP99) / float64(time.Millisecond),
		"netsim.reroutes":        float64(t.reroutes),
		"netsim.held_msgs":       float64(t.held),
		"netsim.hold_drops":      float64(t.holdDrops),
		"orca.rpcs":              float64(t.rpcs),
		"orca.bcasts":            float64(t.bcasts),
		"orca.data_msgs":         float64(t.dataMsgs),
		"orca.rel_wrapped":       float64(t.relWrapped),
		"orca.rel_retransmits":   float64(t.relRetransmits),
		"orca.retransmit_ratio":  ratio(float64(t.relRetransmits), float64(t.relWrapped)),
		"faults.inspected":       float64(t.inspected),
		"faults.drops":           float64(t.drops),
		"runtime.cpu_s":          cpu,
		"runtime.sys_share":      ratio(ps.sys.Seconds(), cpu),
		"runtime.gc_cycles":      float64(ps.gcCycles),
		"runtime.gc_pause_ms":    float64(ps.gcPause) / float64(time.Millisecond),
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
