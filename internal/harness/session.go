package harness

import (
	"cmp"
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
// first use. Experiments build their run set once, run it through All (or
// Speedups, or do for runs with hooks) and render rows from the results by
// index, so report output is byte-identical at any Workers.
type Session struct {
	// Workers bounds how many runs execute concurrently; non-positive
	// selects GOMAXPROCS. Every run builds a private engine and system, so
	// runs share no simulation state.
	Workers int
	// Transport makes Spec describe runs on the gateway transport layer
	// (DefaultTransport); off reproduces the paper's gateways.
	Transport bool

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

// Validate rejects a negative -parallel, which would otherwise read as its
// zero: a malformed flag must be an error, not a silently different run.
func (s *Session) Validate() error {
	if s.Workers < 0 {
		return fmt.Errorf("-parallel must not be negative (got %d)", s.Workers)
	}
	return nil
}

// Spec describes one application variant on a platform with the harness
// parameter set, on the transport layer if the session has it on. Callers
// adjust the returned value (Params, Faults) before running it; the session
// reads nothing else from itself at run time.
func (s *Session) Spec(app AppSpec, topo cluster.Topology, optimized bool) RunSpec {
	p := Params
	if s.Transport {
		p = DefaultTransport
	}
	return RunSpec{App: app, Topo: topo, Optimized: optimized, Params: p}
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

// All runs every spec through Run on the worker pool and returns the results
// in spec order. The error is the earliest-indexed failing spec's — the one a
// sequential loop stopping at the first failure would report.
func (s *Session) All(specs ...RunSpec) ([]Result, error) {
	res, errs := s.all(specs)
	return res, cmp.Or(errs...)
}

// all is All with each spec's own error, for sweeps that tolerate some
// failures. A repeated spec (a shared baseline) takes its result from its
// first occurrence: it runs once and never parks a worker on its twin.
func (s *Session) all(specs []RunSpec) ([]Result, []error) {
	res := make([]Result, len(specs))
	first := make([]int, len(specs))
	seen := map[runKey]int{}
	tasks := make([]func() error, len(specs))
	for i, sp := range specs {
		k := sp.key()
		j, dup := seen[k]
		if !dup {
			j = i
			seen[k] = i
		}
		first[i] = j
		tasks[i] = func() (err error) {
			if !dup {
				res[i], err = s.Run(sp)
			}
			return err
		}
	}
	errs := s.each(tasks)
	for i, j := range first {
		res[i], errs[i] = res[j], errs[j]
	}
	return res, errs
}

// Speedups returns T(1 CPU)/T(spec) for each spec, and each spec's Result:
// the paper computes each variant's speedup against its own single-processor
// run. The specs and their baselines run together through All. A degenerate
// zero-elapsed run surfaces as an error, not as a silent +Inf in a report.
func (s *Session) Speedups(specs ...RunSpec) ([]float64, []Result, error) {
	runs := make([]RunSpec, 0, 2*len(specs))
	for _, sp := range specs {
		runs = append(runs, baseline(sp), sp)
	}
	res, err := s.All(runs...)
	if err != nil {
		return nil, nil, err
	}
	sps, out := make([]float64, len(specs)), make([]Result, len(specs))
	for i, sp := range specs {
		t1, tp := res[2*i], res[2*i+1]
		if tp.Elapsed <= 0 {
			return nil, nil, fmt.Errorf("harness: %s: degenerate run with non-positive elapsed time %v", sp, tp.Elapsed)
		}
		sps[i], out[i] = t1.Elapsed.Seconds()/tp.Elapsed.Seconds(), tp
	}
	return sps, out, nil
}

// do runs all tasks through each and returns the earliest-indexed error —
// the same one a sequential loop stopping at the first failure would report.
func (s *Session) do(tasks ...func() error) error { return cmp.Or(s.each(tasks)...) }

// each runs all tasks, at most Workers at a time, waits for every one to
// finish and returns each task's error. A task panic becomes its error.
func (s *Session) each(tasks []func() error) []error {
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
	return errs
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
