package harness

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/faults"
)

// TestWorkersDefaultToGOMAXPROCS: a non-positive Workers must still run
// GOMAXPROCS tasks at once — each task holds its slot until that many are
// running together (or a timeout proves the pool is narrower).
func TestWorkersDefaultToGOMAXPROCS(t *testing.T) {
	want := int64(runtime.GOMAXPROCS(0))
	for _, workers := range []int{0, -3} {
		var running atomic.Int64
		tasks := make([]func() error, want)
		for i := range tasks {
			tasks[i] = func() error {
				running.Add(1)
				for deadline := time.Now().Add(2 * time.Second); running.Load() < want; {
					if time.Now().After(deadline) {
						return errors.New("pool narrower than GOMAXPROCS")
					}
					runtime.Gosched()
				}
				return nil
			}
		}
		if err := (&Session{Workers: workers}).do(tasks...); err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
	}
}

func TestWorkersBoundConcurrency(t *testing.T) {
	const workers, n = 3, 24
	s := &Session{Workers: workers}
	var cur, peak, ran atomic.Int64
	tasks := make([]func() error, n)
	for i := range tasks {
		tasks[i] = func() error {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			ran.Add(1)
			return nil
		}
	}
	if err := s.do(tasks...); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != n {
		t.Fatalf("%d of %d tasks ran", ran.Load(), n)
	}
	if peak.Load() > workers {
		t.Fatalf("observed %d concurrent tasks, bound is %d", peak.Load(), workers)
	}
}

func TestDoReturnsEarliestIndexedError(t *testing.T) {
	errA := errors.New("task 2 failed")
	errB := errors.New("task 5 failed")
	for _, workers := range []int{1, 4} {
		tasks := make([]func() error, 8)
		for i := range tasks {
			switch i {
			case 2:
				tasks[i] = func() error { return errA }
			case 5:
				tasks[i] = func() error { return errB }
			default:
				tasks[i] = func() error { return nil }
			}
		}
		if err := (&Session{Workers: workers}).do(tasks...); err != errA {
			t.Fatalf("workers=%d: got %v, want the earliest-indexed error %v", workers, err, errA)
		}
	}
}

func TestDoConvertsPanicsToErrors(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := (&Session{Workers: workers}).do(
			func() error { return nil },
			func() error { panic("boom") },
		)
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("workers=%d: panic not converted: %v", workers, err)
		}
	}
}

// countingApp is a cheap synthetic application whose Build counts how many
// times it actually executes, and whose virtual elapsed time is that count —
// so every execution yields a result no other execution shares. The cache
// tests assert each distinct spec simulates exactly once no matter how many
// goroutines ask, and that each spec is served its own result.
func countingApp(name string, builds *atomic.Int64) AppSpec {
	return AppSpec{
		Name: name,
		Build: func(sys *core.System, opt bool) func() error {
			nth := builds.Add(1)
			sys.SpawnWorkers("w", func(w *core.Worker) {
				w.Compute(time.Duration(nth) * 10 * time.Microsecond)
			})
			return func() error { return nil }
		},
	}
}

// TestSessionKeyIsTheSpec is the cache's contract: the key is the whole
// spec. Starting from one base spec, every row changes a single field; each
// row must execute separately and be served its own result, while 16
// goroutines asking for equal specs concurrently share one execution each.
func TestSessionKeyIsTheSpec(t *testing.T) {
	var builds atomic.Int64
	s := &Session{}
	base := s.Spec(countingApp("synthetic", &builds), cluster.DAS(2, 2), false)
	plan := func(seed uint64) *faults.Plan { return &faults.Plan{Seed: seed} }
	rows := []struct {
		field  string
		mutate func(*RunSpec)
	}{
		{"(base)", func(*RunSpec) {}},
		{"App.Name", func(sp *RunSpec) { sp.App = countingApp("synthetic-2", &builds) }},
		{"Optimized", func(sp *RunSpec) { sp.Optimized = true }},
		{"Topo.Clusters", func(sp *RunSpec) { sp.Topo = cluster.DAS(1, 2) }},
		{"Topo.NodesPerCluster", func(sp *RunSpec) { sp.Topo = cluster.DAS(2, 4) }},
		{"Topo.Sizes", func(sp *RunSpec) { sp.Topo = cluster.Irregular(2, 3) }},
		{"Topo.Sizes (another)", func(sp *RunSpec) { sp.Topo = cluster.Irregular(3, 2) }},
		{"Params.WANLatency", func(sp *RunSpec) { sp.Params.WANLatency *= 2 }},
		{"Transport.MaxFrameBytes", func(sp *RunSpec) { sp.Transport.MaxFrameBytes = 1 << 10 }},
		{"Transport.CoalesceWindow", func(sp *RunSpec) { sp.Transport.CoalesceWindow = time.Millisecond }},
		{"Transport.WANStreams", func(sp *RunSpec) { sp.Transport.WANStreams = 2 }},
		{"shards", func(sp *RunSpec) { sp.shards = 2 }},
		{"Faults (seed 1)", func(sp *RunSpec) { sp.Faults = plan(1) }},
		{"Faults (seed 2)", func(sp *RunSpec) { sp.Faults = plan(2) }},
		{"Rel.RTO", func(sp *RunSpec) { sp.Rel.RTO = time.Second }},
		{"Deadline", func(sp *RunSpec) { sp.Deadline = time.Hour }},
	}
	specs := make([]RunSpec, len(rows))
	for i, row := range rows {
		specs[i] = base
		row.mutate(&specs[i])
	}
	const goroutines = 16
	results := make([][]Result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		results[g] = make([]Result, len(specs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine visits every spec twice, rotated so that
			// different goroutines collide on different entries first.
			for rep := 0; rep < 2; rep++ {
				for i := range specs {
					i := (i + g) % len(specs)
					res, err := s.Run(specs[i])
					if err != nil {
						t.Errorf("%s: %v", rows[i].field, err)
						return
					}
					results[g][i] = res
				}
			}
		}()
	}
	wg.Wait()
	if got := builds.Load(); got != int64(len(specs)) {
		t.Fatalf("%d executions for %d distinct specs", got, len(specs))
	}
	owner := map[time.Duration]string{}
	for i, row := range rows {
		elapsed := results[0][i].Elapsed
		if prev, dup := owner[elapsed]; dup {
			t.Errorf("%s was served the result of %s: the key ignores that field", row.field, prev)
		}
		owner[elapsed] = row.field
		for g := 1; g < goroutines; g++ {
			if results[g][i].Elapsed != elapsed {
				t.Errorf("%s: goroutine %d saw a different result", row.field, g)
			}
		}
	}
}

func TestPrefetchWarmsCache(t *testing.T) {
	var builds atomic.Int64
	s := &Session{}
	specs := withBaseline(s.Spec(countingApp("prefetched", &builds), cluster.DAS(2, 2), false))
	s.Prefetch(specs)
	if got := builds.Load(); got != int64(len(specs)) {
		t.Fatalf("%d builds after Prefetch of %d specs", got, len(specs))
	}
	if _, err := s.Speedup(specs[1]); err != nil {
		t.Fatal(err)
	}
	if got := builds.Load(); got != int64(len(specs)) {
		t.Fatalf("Speedup re-ran a prefetched spec (%d builds)", got)
	}
}

func TestSpeedupRejectsZeroElapsed(t *testing.T) {
	s := &Session{cache: map[runKey]*runEntry{}}
	seed := func(spec RunSpec, m core.Metrics) {
		e := &runEntry{done: make(chan struct{}), res: Result{Metrics: m}}
		close(e.done)
		s.cache[spec.key()] = e
	}
	spec := s.Spec(AppSpec{Name: "degenerate"}, cluster.DAS(4, 16), false)
	seed(baseline(spec), core.Metrics{Elapsed: time.Second})
	seed(spec, core.Metrics{})
	sp, err := s.Speedup(spec)
	if err == nil {
		t.Fatalf("zero-elapsed run produced speedup %v, want error", sp)
	}
	if !strings.Contains(err.Error(), "non-positive elapsed") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestParallelReportsByteIdentical is the worker pool's contract: the same
// experiment rendered at any parallelism must produce byte-identical output.
func TestParallelReportsByteIdentical(t *testing.T) {
	experiments := []struct {
		name string
		run  func(*Session) (*Report, error)
	}{
		{"table1", Table1},
		{"coll", Collectives},
		{"sens-atpg", SensitivityATPG},
	}
	outputs := map[string][]string{}
	for _, workers := range []int{1, 8} {
		for _, e := range experiments {
			rep, err := e.run(&Session{Workers: workers})
			if err != nil {
				t.Fatalf("%s at parallelism %d: %v", e.name, workers, err)
			}
			outputs[e.name] = append(outputs[e.name], rep.Render())
		}
	}
	for _, e := range experiments {
		got := outputs[e.name]
		if got[0] != got[1] {
			t.Fatalf("%s output differs between parallelism 1 and 8:\n--- sequential ---\n%s\n--- parallel ---\n%s",
				e.name, got[0], got[1])
		}
	}
}

// TestCensusReport: a Result's census accounts for every dispatched event,
// and the session's census table lists each memoized run once, with the same
// bytes in whatever order the runs finished.
func TestCensusReport(t *testing.T) {
	app, err := AppByName("ATPG")
	if err != nil {
		t.Fatal(err)
	}
	render := func(s *Session) string {
		specs := []RunSpec{s.Spec(app, cluster.DAS(2, 4), true), s.Spec(app, cluster.DAS(2, 4), false)}
		s.Prefetch(specs)
		for _, sp := range specs {
			res, err := s.Run(sp)
			if err != nil {
				t.Fatal(err)
			}
			if res.Census.Total() != res.Dispatched || res.Dispatched == 0 {
				t.Errorf("%s: census %+v sums to %d, dispatched %d", sp, res.Census, res.Census.Total(), res.Dispatched)
			}
		}
		rep := s.CensusReport()
		if rows := rep.Tables[0].Rows; len(rows) != 2 || !strings.Contains(rows[0][0], "opt=false") {
			t.Errorf("census rows %v, want the two runs, original first", rows)
		}
		return rep.CSV()
	}
	if one, two := render(&Session{Workers: 1}), render(&Session{Workers: 2}); one != two {
		t.Errorf("census differs between worker counts\n1 worker:\n%s\n2 workers:\n%s", one, two)
	}
}

// TestCensusCountsUncachedRuns: runs that bypass the memo cache through
// Session.Exec (ablations, hooked runs) are in the census too — abl-seq's
// three sequencer variants give three rows.
func TestCensusCountsUncachedRuns(t *testing.T) {
	s := &Session{}
	if _, err := AblationSequencer(s); err != nil {
		t.Fatal(err)
	}
	rows := s.CensusReport().Tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("census has %d rows, want one per abl-seq variant: %v", len(rows), rows)
	}
	for _, row := range rows {
		if !strings.HasPrefix(row[0], "abl-seq ") || row[2] == "0" {
			t.Errorf("census row %v, want an abl-seq run that dispatched events", row)
		}
	}
}

// TestSessionValidate: each run-wide setting rejects a negative value with an
// error naming its dasbench flag, and accepts zero (the flag's "off").
func TestSessionValidate(t *testing.T) {
	cases := []struct {
		flag string
		set  func(s *Session, v int)
	}{
		{"-parallel", func(s *Session, v int) { s.Workers = v }},
		{"-coalesce", func(s *Session, v int) { s.Transport.MaxFrameBytes = v }},
		{"-coalesce-window", func(s *Session, v int) { s.Transport.CoalesceWindow = time.Duration(v) }},
		{"-streams", func(s *Session, v int) { s.Transport.WANStreams = v }},
	}
	for _, tc := range cases {
		var neg, zero Session
		tc.set(&neg, -3)
		tc.set(&zero, 0)
		if err := neg.Validate(); err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") {
			t.Errorf("negative %s: error %v, want one naming the flag", tc.flag, err)
		}
		if err := zero.Validate(); err != nil {
			t.Errorf("zero %s rejected: %v", tc.flag, err)
		}
	}
}
