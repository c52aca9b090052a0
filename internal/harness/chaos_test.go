package harness

import (
	"strings"
	"testing"
	"time"

	"albatross/internal/cluster"
)

// TestChaosAllAppsComplete is the acceptance run: under 1% WAN message loss
// plus a 2-second gateway outage, every application completes and verifies
// correct, with the retry layer doing real work.
func TestChaosAllAppsComplete(t *testing.T) {
	spec := ChaosSpec{Loss: 0.01, Outage: 2 * time.Second}
	for _, app := range Apps {
		for _, opt := range []bool{false, true} {
			res := mustExec(t, (&Session{}).chaosRun(app, cluster.DAS(4, 4), opt, spec))
			if res.Elapsed <= 0 {
				t.Fatalf("%s opt=%v: no virtual time elapsed", app.Name, opt)
			}
			if res.Faults.Drops == 0 && res.Faults.CrashDrops == 0 {
				t.Errorf("%s opt=%v: no faults injected (inspected %d)",
					app.Name, opt, res.Faults.Inspected)
			}
			if res.Rel.Retransmits == 0 {
				t.Errorf("%s opt=%v: faults injected but nothing retransmitted", app.Name, opt)
			}
		}
	}
}

// TestChaosDeterminism pins the acceptance criterion that the same fault
// seed and plan reproduce the identical run: equal virtual elapsed time,
// dispatched-event count, and fault/recovery tallies across three runs.
func TestChaosDeterminism(t *testing.T) {
	app, err := AppByName("SOR")
	if err != nil {
		t.Fatal(err)
	}
	spec := ChaosSpec{Loss: 0.02, Outage: 500 * time.Millisecond}
	var first Result
	for i := 0; i < 3; i++ {
		res := mustExec(t, (&Session{}).chaosRun(app, cluster.DAS(3, 3), false, spec))
		if i == 0 {
			first = res
			if res.Faults.Drops == 0 {
				t.Fatal("scenario injected no drops; determinism check is vacuous")
			}
			continue
		}
		if res.Elapsed != first.Elapsed {
			t.Fatalf("run %d elapsed %v, run 0 %v", i, res.Elapsed, first.Elapsed)
		}
		if res.Dispatched != first.Dispatched {
			t.Fatalf("run %d dispatched %d events, run 0 %d", i, res.Dispatched, first.Dispatched)
		}
		if res.Rel != first.Rel {
			t.Fatalf("run %d rel stats %+v, run 0 %+v", i, res.Rel, first.Rel)
		}
		if res.Faults != first.Faults {
			t.Fatalf("run %d fault counters %+v, run 0 %+v", i, res.Faults, first.Faults)
		}
	}
}

// TestChaosBaselineIsFaultFree checks the sweep's reference point: a zero
// spec installs the injector and reliability layer but injects nothing.
func TestChaosBaselineIsFaultFree(t *testing.T) {
	app, err := AppByName("SOR")
	if err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, (&Session{}).chaosRun(app, cluster.DAS(2, 2), false, ChaosSpec{}))
	if res.Faults.Drops != 0 || res.Faults.CrashDrops != 0 {
		t.Fatalf("fault-free baseline injected faults: %+v", res.Faults)
	}
	if res.Rel.Wrapped == 0 {
		t.Fatal("reliability layer not engaged in baseline run")
	}
	if res.Rel.Retransmits != 0 {
		t.Fatalf("baseline retransmitted %d envelopes without faults", res.Rel.Retransmits)
	}
}

// TestChaosReportQuick renders the smoke-test sweep end-to-end.
func TestChaosReportQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep in -short mode")
	}
	rep, err := ChaosReport(&Session{}, true)
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Render()
	for _, want := range []string{"SOR orig", "SOR opt", "ASP orig", "ASP opt",
		"loss 0.0%", "loss 1.0%", "2s outage", "x1.00"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if csv := rep.CSV(); !strings.Contains(csv, "scenario,SOR orig") {
		t.Fatalf("CSV header malformed:\n%s", csv)
	}
}

// TestChaosTimelineIsASessionRun: both timelines — -chaos's and -timeline's
// — run through Session.Timeline, so the session's census lists them.
func TestChaosTimelineIsASessionRun(t *testing.T) {
	s := &Session{}
	if _, err := ChaosTimeline(s, "SOR", false, ChaosSpec{Loss: 0.01, Outage: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	rows := s.CensusReport().Tables[0].Rows
	if len(rows) != 1 || !strings.HasPrefix(rows[0][0], "SOR on 4x4 opt=false faults=") {
		t.Fatalf("census rows %q, want the timeline's one SOR run", rows)
	}
	app, err := AppByName("SOR")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Timeline(s.Spec(app, cluster.DAS(2, 2), true)); err != nil {
		t.Fatal(err)
	}
	rows = s.CensusReport().Tables[0].Rows
	if len(rows) != 2 || rows[0][0] != "SOR on 2x2 opt=true" { // rows sort by spec
		t.Fatalf("census rows %q, want the chaos timeline's run and the plain one", rows)
	}
}
