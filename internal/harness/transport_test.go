package harness

import (
	"strconv"
	"strings"
	"testing"

	"albatross/internal/cluster"
)

// TestTransportPackingAcceptance pins the headline claim of the gateway
// transport layer: running the ORIGINAL (unoptimized) RA program with the
// default coalescing configuration must shrink the intercluster wire traffic
// by at least 5x — the flood of small cache invalidations packs into frames.
func TestTransportPackingAcceptance(t *testing.T) {
	app, err := AppByName("RA")
	if err != nil {
		t.Fatal(err)
	}
	m := mustExec(t, (&Session{Transport: true}).Spec(app, cluster.DAS(2, 8), false))
	frames := m.Net.WANFrames()
	if frames.Msgs == 0 {
		t.Fatal("transport on but no frames on the wire")
	}
	if got := m.Net.PackingRatio(); got < 5 {
		t.Errorf("RA packing ratio %.1f, want >= 5 (frames %d carrying %d msgs)",
			got, frames.Msgs, m.Net.FramedMsgs())
	}
	// The same run without the transport layer must put every intercluster
	// message on the wire individually: frames count strictly below msgs/5
	// means >= 5x fewer WAN transmissions.
	off := mustExec(t, (&Session{}).Spec(app, cluster.DAS(2, 8), false))
	if off.Net.WANFrames().Msgs != 0 || off.Net.FramedMsgs() != 0 {
		t.Errorf("transport off but frame counters nonzero: %+v", off.Net.WANFrames())
	}
	wanMsgs := off.Net.InterRPC().Msgs + off.Net.InterData().Msgs + off.Net.InterBcast().Msgs
	if 5*frames.Msgs > wanMsgs {
		t.Errorf("wire transmissions %d not >=5x below the %d unframed WAN messages",
			frames.Msgs, wanMsgs)
	}
}

// TestTransportTableRenders builds the three-variant table on a small shape
// and checks its structure: one row per application, parseable speedups, and
// a packing column that reflects real framing for the transport variant.
func TestTransportTableRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("full transport table is long in -short mode")
	}
	tr := DefaultTransport
	tr.WANStreams = 2
	rep, err := transportTable(&Session{}, "transport-test", 2, 4, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 1 {
		t.Fatalf("tables: %d", len(rep.Tables))
	}
	tab := rep.Tables[0]
	if len(tab.Rows) != len(Apps) {
		t.Fatalf("rows %d, want %d", len(tab.Rows), len(Apps))
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Headers) {
			t.Fatalf("%s: %d cells, want %d", row[0], len(row), len(tab.Headers))
		}
		for col := 1; col <= 3; col++ {
			sp, err := strconv.ParseFloat(row[col], 64)
			if err != nil || sp <= 0 {
				t.Errorf("%s: bad %s speedup %q", row[0], tab.Headers[col], row[col])
			}
		}
		frames, err := strconv.ParseInt(row[5], 10, 64)
		if err != nil {
			t.Errorf("%s: bad frame count %q", row[0], row[5])
		}
		packing, err := strconv.ParseFloat(row[6], 64)
		if err != nil {
			t.Errorf("%s: bad packing %q", row[0], row[6])
		}
		if frames > 0 && packing < 1 {
			t.Errorf("%s: packing %.1f below 1 with %d frames", row[0], packing, frames)
		}
	}
	out := rep.Render()
	if !strings.Contains(out, "transport-opt") {
		t.Errorf("rendered report missing transport-opt column:\n%s", out)
	}
}
