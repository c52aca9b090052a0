package main

import (
	"io"
	"strings"
	"testing"
)

// TestParseFlagsModes: a flag the selected mode does not read is rejected
// with a message naming it and the mode's flag; the combinations CI and the
// documentation use parse.
func TestParseFlagsModes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		err  string // "" when the command line is valid
	}{
		{[]string{}, ""},
		{[]string{"-exp", "fig9", "-census", "-plot=false"}, ""},
		{[]string{"-exp", "all", "-csv", "out", "-parallel", "8", "-transport"}, ""},
		{[]string{"-chaos", "-csv", "chaos-artifact"}, ""},
		{[]string{"-chaos", "-topo", "ring9.json", "-transport"}, ""},
		{[]string{"-topo", "4x16", "-apps", "RA", "-transport", "-csv", "dir"}, ""},
		{[]string{"-topo", "4x16", "-apps", "all", "-census", "-parallel", "1"}, ""},
		{[]string{"-timeline", "SOR", "-transport"}, ""},
		{[]string{"-list"}, ""},

		{[]string{"-apps", "RA"}, "-apps cannot be combined with -exp; it is read only with -topo"},
		{[]string{"-chaos", "-quick"}, "flag provided but not defined: -quick"},
		{[]string{"-timeline", "SOR", "-topo", "2x4"}, "-topo cannot be combined with -timeline"},
		{[]string{"-topo", "2x4", "-apps", "ASP", "-exp", "fig9"}, "-exp cannot be combined with -topo"},
		{[]string{"-timeline", "SOR", "-census"}, "-census cannot be combined with -timeline"},
		{[]string{"-chaos", "-apps", "RA"}, "-apps cannot be combined with -chaos"},
		{[]string{"-chaos", "-plot=false"}, "-plot cannot be combined with -chaos"},
		{[]string{"-list", "-exp", "fig9"}, "-exp cannot be combined with -list"},
		{[]string{"-list", "-chaos"}, "-chaos cannot be combined with -list"},
		{[]string{"-timeline", "RA", "-csv", "dir"}, "-csv cannot be combined with -timeline"},
		{[]string{"-timeline", "RA", "-parallel", "2"}, "-parallel cannot be combined with -timeline"},
		{[]string{"-chaos=false", "-csv", "dir"}, "-chaos cannot be combined with -exp"},
	} {
		var stderr strings.Builder
		_, err := parseFlags(tc.args, &stderr)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%v: %v", tc.args, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%v: error %v, want %q", tc.args, err, tc.err)
		case tc.err != "" && !strings.Contains(stderr.String(), tc.err):
			t.Errorf("%v: stderr %q does not report %q", tc.args, stderr.String(), tc.err)
		}
	}
}

// TestParseFlagsValues: parsed values reach the options.
func TestParseFlagsValues(t *testing.T) {
	o, err := parseFlags([]string{"-topo", "2x4", "-apps", "SOR,RA", "-parallel", "3", "-transport"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.topo != "2x4" || o.apps != "SOR,RA" || o.parallel != 3 || !o.transport || o.exp != "all" || !o.plot {
		t.Fatalf("options %+v", *o)
	}
}
