package netsim

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"albatross/internal/sim"
)

// testPolicy is a FaultPolicy built from optional closures and declared
// link-down windows; nil fields behave like the perfect network. LinkDown and
// LinkChanges both derive from downs.
type testPolicy struct {
	transit func(at time.Duration, cs, cd int, m Msg) bool
	gwDown  func(at time.Duration, c int, m Msg) bool
	downs   []linkWindow
}

// linkWindow fails the directed link from→to for [start, start+dur).
type linkWindow struct {
	from, to   int
	start, dur time.Duration
}

// forever is a window length that never ends within a run.
const forever = time.Duration(math.MaxInt64)

// downPair returns the windows failing one directed pair for [start,
// start+dur); dur is clipped so the window ends at the last instant.
func downPair(from, to int, start, dur time.Duration) []linkWindow {
	return []linkWindow{{from, to, start, min(dur, forever-start)}}
}

func (p *testPolicy) WANTransit(at time.Duration, cs, cd int, m Msg) bool {
	if p.transit == nil {
		return false
	}
	return p.transit(at, cs, cd, m)
}

func (p *testPolicy) GatewayDown(at time.Duration, c int, m Msg) bool {
	if p.gwDown == nil {
		return false
	}
	return p.gwDown(at, c, m)
}

func (p *testPolicy) LinkDown(at time.Duration, from, to int) bool {
	for _, w := range p.downs {
		if w.from == from && w.to == to && at >= w.start && at < w.start+w.dur {
			return true
		}
	}
	return false
}

func (p *testPolicy) LinkChanges() []time.Duration {
	var at []time.Duration
	for _, w := range p.downs {
		at = append(at, w.start, w.start+w.dur)
	}
	slices.Sort(at)
	return slices.Compact(at)
}

func (p *testPolicy) Bind(int) {}

var _ FaultPolicy = (*testPolicy)(nil)

func TestFaultDropLosesMessage(t *testing.T) {
	e, n := build(2, 2)
	n.SetFaultPolicy(&testPolicy{
		transit: func(time.Duration, int, int, Msg) bool { return true },
	})
	n.Send(Msg{From: 0, To: 2, Kind: KindData, Size: 1000})
	n.Send(Msg{From: 0, To: 1, Kind: KindData, Size: 1000}) // LAN: never faulted
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := n.Inbox(2).Len(); got != 0 {
		t.Fatalf("dropped WAN message delivered (%d in inbox)", got)
	}
	if got := n.Inbox(1).Len(); got != 1 {
		t.Fatalf("LAN message faulted (%d in inbox, want 1)", got)
	}
}

func TestFaultGatewayCrashDropsBothSides(t *testing.T) {
	// A crashed local gateway loses the message before the WAN; a crashed
	// remote gateway loses it after the WAN transit.
	for _, down := range []int{0, 1} {
		e, n := build(2, 2)
		n.SetFaultPolicy(&testPolicy{
			gwDown: func(_ time.Duration, c int, _ Msg) bool { return c == down },
		})
		n.Send(Msg{From: 0, To: 2, Kind: KindData, Size: 1000})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if got := n.Inbox(2).Len(); got != 0 {
			t.Fatalf("message survived crashed gateway of cluster %d", down)
		}
		reps := n.PipeReports()
		if down == 0 && len(reps) != 0 {
			t.Fatalf("local-gateway crash still used the WAN pipe: %+v", reps)
		}
		if down == 1 && (len(reps) != 1 || reps[0].Msgs != 1) {
			t.Fatalf("remote-gateway crash should lose after transit: %+v", reps)
		}
	}
}

// TestNoopFaultPolicyIsTransparent pins the guarantee that a policy that
// never drops gives bit-identical timing to no policy.
func TestNoopFaultPolicyIsTransparent(t *testing.T) {
	run := func(install bool) (time.Duration, uint64) {
		e, n := build(2, 2)
		if install {
			n.SetFaultPolicy(&testPolicy{})
		}
		n.Send(Msg{From: 0, To: 2, Kind: KindData, Size: 1000})
		n.Send(Msg{From: 1, To: 3, Kind: KindData, Size: 500})
		var last time.Duration
		e.Go("r", func(p *sim.Proc) {
			n.Inbox(2).Get(p)
			last = p.Now()
		})
		e.Go("r2", func(p *sim.Proc) {
			n.Inbox(3).Get(p)
			if p.Now() > last {
				last = p.Now()
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return last, e.Dispatched()
	}
	bareAt, bareEvents := run(false)
	noopAt, noopEvents := run(true)
	if bareAt != noopAt || bareEvents != noopEvents {
		t.Fatalf("no-op policy changed the run: %v/%d events vs %v/%d",
			bareAt, bareEvents, noopAt, noopEvents)
	}
}

func TestWANQualityValidation(t *testing.T) {
	cases := []struct {
		name    string
		install func(*Network)
		want    string
	}{
		{"profile negative latency", func(n *Network) {
			n.SetWANProfile(func(time.Duration) (float64, float64) { return -1, 1 })
		}, "invalid WAN scales"},
		{"profile zero bandwidth", func(n *Network) {
			n.SetWANProfile(func(time.Duration) (float64, float64) { return 1, 0 })
		}, "invalid WAN scales"},
		{"profile NaN", func(n *Network) {
			nan := 0.0
			nan /= nan
			bad := nan // silence constant-folding; NaN must be rejected
			n.SetWANProfile(func(time.Duration) (float64, float64) { return bad, 1 })
		}, "invalid WAN scales"},
		{"profile negative bandwidth", func(n *Network) {
			n.SetWANProfile(func(time.Duration) (float64, float64) { return 1, -2 })
		}, "invalid WAN scales"},
		// Scaled latency or transmission time past the last Duration would
		// wrap negative and make the WAN faster.
		{"profile latency overflow", func(n *Network) {
			n.SetWANProfile(func(time.Duration) (float64, float64) { return 1e300, 1 })
		}, "past the last representable instant"},
		{"profile transmission overflow", func(n *Network) {
			n.SetWANProfile(func(time.Duration) (float64, float64) { return 1, 1e-300 })
		}, "past the last representable instant"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, n := build(2, 2)
			tc.install(n.Network)
			n.Send(Msg{From: 0, To: 2, Kind: KindData, Size: 1000})
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("invalid WAN quality sample not rejected")
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "WANProfile") || !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %v does not name WANProfile and %q", r, tc.want)
				}
			}()
			_ = e.Run()
		})
	}
}
