package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the public call. Spans of one application run share
// its (pass, run) identifier and point at the run span as their parent.
type span struct {
	name       string
	parent     int // index into tracer.spans; -1 for a run span
	pass       int
	run        string // <app>-<variant>
	start, end time.Duration
}

// tracer keeps spans in memory until the traced run ends. A nil tracer
// records nothing, so the timed runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, pass int, run string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, pass: pass, run: run, start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.t0)
}

// passSums sums span durations of one pass by name; a run span counts under
// "apps.<run>". cover is the share of the pass's run spans that their
// children cover: the rest is self time, spent in the benchmark's own code.
func (t *tracer) passSums(pass int) (sums map[string]time.Duration, cover float64) {
	sums = map[string]time.Duration{}
	var runs, children time.Duration
	for _, s := range t.spans {
		if s.pass != pass {
			continue
		}
		d := s.end - s.start
		if s.parent < 0 {
			sums["apps."+s.run] += d
			runs += d
		} else {
			sums[s.name] += d
			children += d
		}
	}
	return sums, float64(children) / float64(runs)
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev): one complete event per span, one
// row (tid) per pass, with the run identifier in args.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`  // microseconds
		Dur  float64           `json:"dur"` // microseconds
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			Pid: 1, Tid: s.pass,
			Args: map[string]string{"run": s.run, "id": fmt.Sprintf("%d/%s", s.pass, s.run)},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
