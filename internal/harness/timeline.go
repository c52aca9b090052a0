package harness

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"albatross/internal/core"
	"albatross/internal/faults"
	"albatross/internal/netsim"
)

// A timeline counts a run's messages — and, under a fault plan, its injected
// faults — in buckets of virtual time and renders each series as a text
// sparkline: a light way to see *when* a run communicates (bursts, phases,
// saturation plateaus), next to the run-total counters of netsim.Stats.
const (
	timelineBucket = time.Millisecond // virtual time per bucket
	timelineWidth  = 72               // cells per rendered row
	faultSeries    = "fault/"         // prefix of the series rendered in faultRunes
)

// sparkRunes are the density levels of a traffic row; faultRunes those of a
// fault row, unmistakable from traffic so injected drops, outages and
// retries stand out in a chaos run's timeline.
var (
	sparkRunes = []rune(" .:-=+*#@")
	faultRunes = []rune(" '!xoXO%@")
)

// timeline holds per-series event counts, one per timelineBucket.
type timeline struct {
	series map[string][]int64
	maxLen int // buckets of the longest series: the span every row shares
}

// add counts one event on the series at virtual time at.
func (t *timeline) add(at time.Duration, series string) {
	idx := int(at / timelineBucket)
	s := t.series[series]
	for len(s) <= idx {
		s = append(s, 0)
	}
	s[idx]++
	t.series[series] = s
	t.maxLen = max(t.maxLen, len(s))
}

// hook taps every message, and under a fault plan every injected fault, into
// the timeline.
func (t *timeline) hook() Hook {
	return func(sys *core.System, in *faults.Injector) {
		sys.Net.SetTap(func(at time.Duration, m netsim.Msg, inter bool) {
			scope := "intra/"
			if inter {
				scope = "inter/"
			}
			t.add(at, scope+m.Kind.String())
		})
		if in != nil {
			in.OnEvent(func(ev faults.Event) { t.add(ev.At, faultSeries+ev.Kind.String()) })
		}
	}
}

// sparkline renders one series in timelineWidth cells over the timeline's
// full span, scaled to the series' own maximum, and returns it with the
// series' total.
func (t *timeline) sparkline(name string) (string, int64) {
	cells := make([]int64, timelineWidth)
	var total int64
	for i, v := range t.series[name] {
		cells[i*timelineWidth/t.maxLen] += v
		total += v
	}
	ramp := sparkRunes
	if strings.HasPrefix(name, faultSeries) {
		ramp = faultRunes
	}
	peak := max(slices.Max(cells), 1)
	out := make([]rune, timelineWidth)
	for i, v := range cells {
		out[i] = ramp[v*int64(len(ramp)-1)/peak]
	}
	return string(out), total
}

// render prints every series, sorted by name, as an aligned sparkline with
// its total.
func (t *timeline) render() string {
	var b strings.Builder
	span := time.Duration(t.maxLen) * timelineBucket
	// A cell of a 1 ms bucket is at least 1 ms / timelineWidth, so the
	// microsecond floor shows only on an empty timeline: never "0s".
	cell := max(span/timelineWidth, time.Microsecond).Round(time.Microsecond)
	fmt.Fprintf(&b, "timeline over %v (one cell = %v)\n", span.Round(time.Millisecond), cell)
	names := make([]string, 0, len(t.series))
	for name := range t.series {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		line, total := t.sparkline(name)
		fmt.Fprintf(&b, "%-14s |%s| %d\n", name, line, total)
	}
	return b.String()
}

// Timeline runs spec through the session, so -census lists it, with every
// message and injected fault tapped into a timeline, and returns the run's
// result and the rendered timeline.
func (s *Session) Timeline(spec RunSpec) (Result, string, error) {
	tl := &timeline{series: make(map[string][]int64)}
	res, err := s.Exec(spec, tl.hook())
	return res, tl.render(), err
}
