// Package trace aggregates simulation activity into time-bucketed series
// and renders them as text timelines — a lightweight way to see *when* a
// run communicates (bursts, phases, saturation plateaus), complementing the
// run-total counters of netsim.Stats.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Timeline accumulates per-series event counts into fixed-width buckets of
// virtual time.
type Timeline struct {
	bucket time.Duration
	series map[string][]int64
	maxLen int
}

// New creates a timeline with the given bucket width.
func New(bucket time.Duration) *Timeline {
	if bucket <= 0 {
		panic("trace: bucket must be positive")
	}
	return &Timeline{bucket: bucket, series: make(map[string][]int64)}
}

// Add records n events on the series at virtual time at. Events before time
// zero (e.g. from callers that pre-date their clock) land in the first bucket.
func (t *Timeline) Add(at time.Duration, series string, n int64) {
	if at < 0 {
		at = 0
	}
	idx := int(at / t.bucket)
	s := t.series[series]
	for len(s) <= idx {
		s = append(s, 0)
	}
	s[idx] += n
	t.series[series] = s
	if len(s) > t.maxLen {
		t.maxLen = len(s)
	}
}

// Series returns the sorted series names.
func (t *Timeline) Series() []string {
	names := make([]string, 0, len(t.series))
	for k := range t.series {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Total returns the sum over one series.
func (t *Timeline) Total(series string) int64 {
	var sum int64
	for _, v := range t.series[series] {
		sum += v
	}
	return sum
}

// sparkRunes are the eight density levels of a text sparkline.
var sparkRunes = []rune(" .:-=+*#@")

// faultRunes are the density levels used for fault series: visually
// unmistakable from traffic rows, so injected drops, outages and retries
// stand out when reading a chaos run's timeline.
var faultRunes = []rune(" '!xoXO%@")

// FaultSeriesPrefix marks a series as fault events. Series whose name starts
// with this prefix (e.g. "fault/drop", "fault/outage") render with a
// distinct glyph ramp.
const FaultSeriesPrefix = "fault/"

// rampFor selects the glyph ramp for a series by name.
func rampFor(series string) []rune {
	if strings.HasPrefix(series, FaultSeriesPrefix) {
		return faultRunes
	}
	return sparkRunes
}

// Sparkline renders one series as a density string of the given width,
// rebinning the buckets as needed. The scale is the series' own maximum.
func (t *Timeline) Sparkline(series string, width int) string {
	s := t.series[series]
	if len(s) == 0 || width <= 0 {
		return strings.Repeat(" ", max(width, 0))
	}
	// Rebin to width cells over the timeline's full span.
	cells := make([]int64, width)
	span := t.maxLen
	for i, v := range s {
		cells[i*width/span] += v // i < len(s) <= span
	}
	var peak int64 = 1
	for _, v := range cells {
		if v > peak {
			peak = v
		}
	}
	ramp := rampFor(series)
	out := make([]rune, width)
	for i, v := range cells {
		lvl := int(v * int64(len(ramp)-1) / peak)
		out[i] = ramp[lvl]
	}
	return string(out)
}

// Render prints all series as aligned sparklines with totals.
func (t *Timeline) Render(width int) string {
	var b strings.Builder
	span := time.Duration(t.maxLen) * t.bucket
	cell := span / time.Duration(max(width, 1))
	if cell < time.Nanosecond {
		// Span shorter than the cell count: each cell still covers at
		// least the simulator's resolution, never "0s".
		cell = time.Nanosecond
	}
	disp := cell.Round(time.Microsecond)
	if disp <= 0 {
		disp = cell // sub-microsecond cells print exact, not rounded away
	}
	fmt.Fprintf(&b, "timeline over %v (one cell = %v)\n", span.Round(time.Millisecond), disp)
	for _, name := range t.Series() {
		fmt.Fprintf(&b, "%-14s |%s| %d\n", name, t.Sparkline(name, width), t.Total(name))
	}
	return b.String()
}
