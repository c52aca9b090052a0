package harness

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"albatross/internal/cluster"
)

// Session carries the two run-wide settings and owns the state runs share:
// the singleflight result cache, the bounded worker pool, and the log of
// finished runs its census report reads. The zero value is ready to use
// (plain gateways, GOMAXPROCS workers); a Session must not be copied after
// first use. Experiments follow collect-then-render: submit the full run set
// through Prefetch (or do), then render rows sequentially from the memoized
// results, so report output is byte-identical at any Workers.
type Session struct {
	// Workers bounds how many runs execute concurrently; non-positive
	// selects GOMAXPROCS. Every run builds a private engine and system, so
	// runs share no simulation state.
	Workers int
	// Transport is what Spec stamps on the runs it describes: the gateway
	// transport layer (off reproduces the paper's gateways).
	Transport Transport

	mu    sync.Mutex
	cache map[runKey]*runEntry
	ran   []ranRun // every run Exec finished, memoized or not, in finishing order
}

// runEntry is one cache slot; done is closed once res/err are final.
type runEntry struct {
	done chan struct{}
	res  Result
	err  error
}

// ranRun is one finished run in the session's log, failed or not.
type ranRun struct {
	spec RunSpec
	res  Result
}

// Validate rejects a negative run-wide setting, naming the dasbench flag that
// carries it. Every negative value would otherwise read as the flag's zero:
// a malformed flag must be an error, not a silently different run.
func (s *Session) Validate() error {
	t := s.Transport
	for _, f := range []struct {
		flag string
		neg  bool
		v    any
	}{
		{"-parallel", s.Workers < 0, s.Workers},
		{"-coalesce", t.MaxFrameBytes < 0, t.MaxFrameBytes},
		{"-coalesce-window", t.CoalesceWindow < 0, t.CoalesceWindow},
		{"-streams", t.WANStreams < 0, t.WANStreams},
	} {
		if f.neg {
			return fmt.Errorf("%s must not be negative (got %v)", f.flag, f.v)
		}
	}
	return nil
}

// Spec describes one application variant on a platform with the harness
// parameter set and the session's transport setting. Callers adjust the
// returned value (Params, Faults, an explicit Transport{}) before running it;
// the session reads nothing else from itself at run time.
func (s *Session) Spec(app AppSpec, topo cluster.Topology, optimized bool) RunSpec {
	return RunSpec{App: app, Topo: topo, Optimized: optimized, Params: Params, Transport: s.Transport}
}

// Exec is the package-level Exec, additionally logging the finished run for
// the session's census report. Use it for runs that carry hooks or report
// through captured variables; everything else goes through Run.
func (s *Session) Exec(spec RunSpec, hooks ...Hook) (Result, error) {
	res, err := Exec(spec, hooks...)
	s.mu.Lock()
	s.ran = append(s.ran, ranRun{spec, res})
	s.mu.Unlock()
	return res, err
}

// Run is Exec with memoization: the summary figures and tables reuse many of
// the same configurations. It is safe for concurrent use and singleflight —
// concurrent callers of an equal spec share one execution (errors included,
// which a deterministic simulation reproduces anyway), the first caller
// running the simulation while the rest wait on its entry.
func (s *Session) Run(spec RunSpec) (Result, error) {
	k := spec.key()
	s.mu.Lock()
	e, ok := s.cache[k]
	if ok {
		s.mu.Unlock()
		<-e.done
		return e.res, e.err
	}
	if s.cache == nil {
		s.cache = map[runKey]*runEntry{}
	}
	e = &runEntry{done: make(chan struct{})}
	s.cache[k] = e
	s.mu.Unlock()
	e.res, e.err = s.Exec(spec)
	close(e.done)
	return e.res, e.err
}

// Speedup returns T(1 CPU)/T(spec) for the spec's variant. A degenerate
// zero-elapsed run surfaces as an error, not as a silent +Inf in a report.
func (s *Session) Speedup(spec RunSpec) (float64, error) {
	t1, err := s.Run(baseline(spec))
	if err != nil {
		return 0, err
	}
	tp, err := s.Run(spec)
	if err != nil {
		return 0, err
	}
	if tp.Elapsed <= 0 {
		return 0, fmt.Errorf("harness: %s: degenerate run with non-positive elapsed time %v", spec, tp.Elapsed)
	}
	return t1.Elapsed.Seconds() / tp.Elapsed.Seconds(), nil
}

// Prefetch warms the cache for every spec concurrently on the worker pool.
// Failures are not reported here: they are memoized and deterministically
// re-surface, in sequential order, when the render pass calls Run or Speedup
// for the same spec.
func (s *Session) Prefetch(specs []RunSpec) {
	// Duplicates (shared baselines) are dropped first: a second caller of an
	// in-flight spec would only park a worker on its entry.
	seen := map[runKey]bool{}
	var tasks []func() error
	for _, sp := range specs {
		sp := sp
		if k := sp.key(); !seen[k] {
			seen[k] = true
			tasks = append(tasks, func() error {
				_, err := s.Run(sp)
				return err
			})
		}
	}
	_ = s.do(tasks...)
}

// do runs all tasks, at most Workers at a time, and waits for every one to
// finish. A task panic is converted into an error. The returned error is
// that of the earliest-indexed failing task — the same one a sequential
// loop stopping at the first failure would report.
func (s *Session) do(tasks ...func() error) error {
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, len(tasks))
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = fmt.Errorf("harness: task %d panicked: %v", i, r)
			}
		}()
		errs[i] = tasks[i]()
	}
	if workers == 1 || len(tasks) <= 1 {
		for i := range tasks {
			run(i)
		}
	} else {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i := range tasks {
			sem <- struct{}{}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				run(i)
			}(i)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// CensusReport tabulates the engine's event census of every run the session
// has finished, memoized or not: one row per run, events dispatched, what
// scheduled them, and how many times the engine switched into a process. Rows
// are sorted by their text, so the table is the same at any Workers.
func (s *Session) CensusReport() *Report {
	t := &Table{
		ID:      "census",
		Title:   "Events each run dispatched, by what scheduled them (sim.Census), and process resumes",
		Headers: []string{"run", "virtual s", "events", "start", "sleep", "compute", "wake", "lane", "callback", "resumes"},
	}
	s.mu.Lock()
	for _, r := range s.ran {
		c := r.res.Census
		row := []string{r.spec.String(), fmt.Sprintf("%.6f", r.res.Seconds())}
		for _, n := range []uint64{r.res.Dispatched, c.Start, c.Sleep, c.Compute, c.Wake, c.Lane, c.Callback, r.res.Resumes} {
			row = append(row, fmt.Sprint(n))
		}
		t.Rows = append(t.Rows, row)
	}
	s.mu.Unlock()
	slices.SortFunc(t.Rows, slices.Compare[[]string])
	return &Report{ID: t.ID, Title: t.Title, Tables: []*Table{t}}
}
