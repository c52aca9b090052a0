package trace

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"albatross/internal/apps/sor"
	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/netsim"
)

func TestBucketing(t *testing.T) {
	tl := New(time.Millisecond)
	tl.Add(0, "a", 1)
	tl.Add(999*time.Microsecond, "a", 2)
	tl.Add(time.Millisecond, "a", 5)
	tl.Add(10*time.Millisecond, "b", 7)
	if got := tl.series["a"]; len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("a buckets %v", got)
	}
	if tl.Total("a") != 8 || tl.Total("b") != 7 {
		t.Fatalf("totals %d %d", tl.Total("a"), tl.Total("b"))
	}
	if got := tl.Series(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("series %v", got)
	}
}

func TestSparklineWidthAndScale(t *testing.T) {
	tl := New(time.Millisecond)
	for i := 0; i < 100; i++ {
		tl.Add(time.Duration(i)*time.Millisecond, "x", int64(i))
	}
	s := tl.Sparkline("x", 20)
	if len([]rune(s)) != 20 {
		t.Fatalf("sparkline width %d", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[19] != '@' {
		t.Fatalf("peak cell %q, want '@': %q", runes[19], s)
	}
	if runes[0] == '@' {
		t.Fatalf("low cell rendered as peak: %q", s)
	}
	if s := tl.Sparkline("absent", 4); s != "    " {
		t.Fatalf("series with no events: %q, want 4 blanks", s)
	}
	if s := tl.Sparkline("x", -1); s != "" {
		t.Fatalf("negative width: %q, want empty", s)
	}
}

func TestNewRejectsNonPositiveBucket(t *testing.T) {
	defer func() {
		if r := recover(); r != "trace: bucket must be positive" {
			t.Fatalf("panic %v", r)
		}
	}()
	New(0)
}

func TestTotalPreservedByBucketing(t *testing.T) {
	prop := func(vals []uint8) bool {
		tl := New(100 * time.Microsecond)
		var want int64
		for i, v := range vals {
			tl.Add(time.Duration(i)*37*time.Microsecond, "s", int64(v))
			want += int64(v)
		}
		return tl.Total("s") == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRenderContainsAllSeries(t *testing.T) {
	tl := New(time.Millisecond)
	tl.Add(0, "rpc", 3)
	tl.Add(time.Millisecond, "bcast", 1)
	out := tl.Render(30)
	if !strings.Contains(out, "rpc") || !strings.Contains(out, "bcast") {
		t.Fatalf("render missing series:\n%s", out)
	}
}

func TestAddBeforeTimeZeroClampsToFirstBucket(t *testing.T) {
	tl := New(time.Millisecond)
	tl.Add(-5*time.Millisecond, "x", 2) // must not panic
	tl.Add(-1, "x", 1)
	tl.Add(0, "x", 4)
	if got := tl.series["x"]; len(got) != 1 || got[0] != 7 {
		t.Fatalf("x buckets %v, want [7]", got)
	}
}

func TestRenderShortSpanNeverShowsZeroCell(t *testing.T) {
	tl := New(time.Nanosecond)
	tl.Add(0, "x", 1)
	tl.Add(3, "x", 1) // span of 4ns rendered at width 30
	out := tl.Render(30)
	if strings.Contains(out, "one cell = 0s") {
		t.Fatalf("zero-width cell rendered:\n%s", out)
	}
}

func TestRenderEmptyTimeline(t *testing.T) {
	tl := New(time.Millisecond)
	out := tl.Render(30)
	if strings.Contains(out, "one cell = 0s") {
		t.Fatalf("zero-width cell rendered for empty timeline:\n%s", out)
	}
}

// TestTapIntegration runs a real application with a timeline tap attached
// and checks the recorded traffic matches the run's counters.
func TestTapIntegration(t *testing.T) {
	sys := core.NewSystem(core.Config{
		Topology: cluster.DAS(2, 3),
		Params:   cluster.DASParams(),
	})
	tl := New(time.Millisecond)
	sys.Net.SetTap(func(at time.Duration, m netsim.Msg, inter bool) {
		scope := "intra"
		if inter {
			scope = "inter"
		}
		tl.Add(at, scope+"/"+m.Kind.String(), 1)
	})
	cfg := sor.Config{NX: 24, NY: 16, Omega: 1.7, Eps: 1e-4, MaxIters: 3000,
		CellCost: time.Microsecond, SkipMod: 3}
	verify := sor.Build(sys, cfg, false)
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := verify(); err != nil {
		t.Fatal(err)
	}
	var tapped int64
	for _, s := range tl.Series() {
		tapped += tl.Total(s)
	}
	want := m.Net.TotalIntra().Msgs + m.Net.TotalInter().Msgs
	if tapped != want {
		t.Fatalf("tap saw %d messages, stats counted %d", tapped, want)
	}
	if tl.Total("inter/data") == 0 {
		t.Fatal("no intercluster data traffic recorded for a 2-cluster SOR run")
	}
}

func TestFaultSeriesUseDistinctGlyphs(t *testing.T) {
	tl := New(time.Millisecond)
	for i := 0; i < 40; i++ {
		tl.Add(time.Duration(i)*time.Millisecond, "inter/data", int64(i))
		tl.Add(time.Duration(i)*time.Millisecond, FaultSeriesPrefix+"drop", int64(i))
	}
	traffic := tl.Sparkline("inter/data", 20)
	fault := tl.Sparkline(FaultSeriesPrefix+"drop", 20)
	if traffic == fault {
		t.Fatalf("fault row renders like traffic: %q", fault)
	}
	// Identical data, so the peak cell shows each ramp's top rune.
	tr, fr := []rune(traffic), []rune(fault)
	if tr[19] != '@' || fr[19] != '@' {
		t.Fatalf("peaks %q / %q", tr[19], fr[19])
	}
	// Mid-density cells come from different ramps.
	if strings.ContainsAny(fault, ".:-=+*#") {
		t.Fatalf("fault sparkline %q uses traffic glyphs", fault)
	}
	if strings.ContainsAny(traffic, "'!xoXO%") {
		t.Fatalf("traffic sparkline %q uses fault glyphs", traffic)
	}
	// Both rows appear in the rendered timeline.
	out := tl.Render(20)
	if !strings.Contains(out, "fault/drop") || !strings.Contains(out, "inter/data") {
		t.Fatalf("render missing a row:\n%s", out)
	}
}
