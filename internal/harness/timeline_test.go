package harness

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"albatross/internal/cluster"
)

func newTimeline() *timeline { return &timeline{series: make(map[string][]int64)} }

// addN counts n events on the series at virtual time at.
func (t *timeline) addN(at time.Duration, series string, n int) {
	for range n {
		t.add(at, series)
	}
}

// total sums one series.
func (t *timeline) total(series string) int64 {
	_, n := t.sparkline(series)
	return n
}

func TestTimelineBucketing(t *testing.T) {
	tl := newTimeline()
	tl.addN(0, "a", 1)
	tl.addN(999*time.Microsecond, "a", 2)
	tl.addN(time.Millisecond, "a", 5)
	tl.addN(10*time.Millisecond, "b", 7)
	if got := tl.series["a"]; len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("a buckets %v", got)
	}
	if tl.total("a") != 8 || tl.total("b") != 7 {
		t.Fatalf("totals %d %d", tl.total("a"), tl.total("b"))
	}
	if tl.maxLen != 11 {
		t.Fatalf("span %d buckets, want 11", tl.maxLen)
	}
}

func TestTimelineSparklineWidthAndScale(t *testing.T) {
	tl := newTimeline()
	for i := 0; i < 2*timelineWidth; i++ { // two buckets a cell
		tl.addN(time.Duration(i)*time.Millisecond, "x", i)
	}
	s, _ := tl.sparkline("x")
	runes := []rune(s)
	if len(runes) != timelineWidth {
		t.Fatalf("sparkline width %d", len(runes))
	}
	if runes[timelineWidth-1] != '@' {
		t.Fatalf("peak cell %q, want '@': %q", runes[timelineWidth-1], s)
	}
	if runes[0] == '@' {
		t.Fatalf("low cell rendered as peak: %q", s)
	}
}

func TestTimelineTotalPreservedByBucketing(t *testing.T) {
	prop := func(vals []uint8) bool {
		tl := newTimeline()
		var want int64
		for i, v := range vals {
			tl.addN(time.Duration(i)*37*time.Microsecond, "s", int(v))
			want += int64(v)
		}
		return tl.total("s") == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimelineRenderContainsAllSeries(t *testing.T) {
	tl := newTimeline()
	tl.addN(0, "rpc", 3)
	tl.addN(time.Millisecond, "bcast", 1)
	out := tl.render()
	if !strings.Contains(out, "rpc") || !strings.Contains(out, "bcast") {
		t.Fatalf("render missing series:\n%s", out)
	}
	if i, j := strings.Index(out, "bcast"), strings.Index(out, "rpc"); i > j {
		t.Fatalf("series not sorted by name:\n%s", out)
	}
}

func TestTimelineRenderEmpty(t *testing.T) {
	out := newTimeline().render()
	if strings.Contains(out, "one cell = 0s") {
		t.Fatalf("zero-width cell rendered for empty timeline:\n%s", out)
	}
}

// TestTimelineRenderShortSpanNeverShowsZeroCell renders the shortest span a
// non-empty timeline can have, a few nanoseconds in one bucket, and checks
// the cell width is not rounded down to zero.
func TestTimelineRenderShortSpanNeverShowsZeroCell(t *testing.T) {
	tl := newTimeline()
	tl.addN(0, "x", 1)
	tl.addN(3, "x", 1) // span of 4ns, one bucket
	out := tl.render()
	if strings.Contains(out, "one cell = 0s") {
		t.Fatalf("zero-width cell rendered:\n%s", out)
	}
	if s, n := tl.sparkline("x"); n != 2 || []rune(s)[0] != '@' {
		t.Fatalf("sparkline %q total %d, want '@' first and 2", s, n)
	}
}

// TestTimelineTapsEveryMessage runs a real application with the timeline's
// tap attached and checks the recorded traffic matches the run's counters.
func TestTimelineTapsEveryMessage(t *testing.T) {
	app, err := AppByName("SOR")
	if err != nil {
		t.Fatal(err)
	}
	tl := newTimeline()
	m := mustExec(t, (&Session{}).Spec(app, cluster.DAS(2, 3), false), tl.hook())
	var tapped int64
	for s := range tl.series {
		tapped += tl.total(s)
	}
	if want := m.Net.TotalIntra().Msgs + m.Net.TotalInter().Msgs; tapped != want {
		t.Fatalf("tap saw %d messages, stats counted %d", tapped, want)
	}
	if tl.total("inter/data") == 0 {
		t.Fatal("no intercluster data traffic recorded for a 2-cluster SOR run")
	}
}

func TestTimelineFaultSeriesUseDistinctGlyphs(t *testing.T) {
	tl := newTimeline()
	for i := 0; i < timelineWidth; i++ { // one bucket a cell
		tl.addN(time.Duration(i)*time.Millisecond, "inter/data", i)
		tl.addN(time.Duration(i)*time.Millisecond, faultSeries+"drop", i)
	}
	traffic, _ := tl.sparkline("inter/data")
	fault, _ := tl.sparkline(faultSeries + "drop")
	if traffic == fault {
		t.Fatalf("fault row renders like traffic: %q", fault)
	}
	// Identical data, so the peak cell shows each ramp's top rune.
	tr, fr := []rune(traffic), []rune(fault)
	if tr[timelineWidth-1] != '@' || fr[timelineWidth-1] != '@' {
		t.Fatalf("peaks %q / %q", tr[timelineWidth-1], fr[timelineWidth-1])
	}
	// Mid-density cells come from different ramps.
	if strings.ContainsAny(fault, ".:-=+*#") {
		t.Fatalf("fault sparkline %q uses traffic glyphs", fault)
	}
	if strings.ContainsAny(traffic, "'!xoXO%") {
		t.Fatalf("traffic sparkline %q uses fault glyphs", traffic)
	}
	// Both rows appear in the rendered timeline.
	out := tl.render()
	if !strings.Contains(out, "fault/drop") || !strings.Contains(out, "inter/data") {
		t.Fatalf("render missing a row:\n%s", out)
	}
}
