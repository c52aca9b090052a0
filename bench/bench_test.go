package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestNamesMatchBenchmarkJSON holds the program's tables and BENCHMARK.json
// equal in both directions, and both inside the contract's limits.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName("workload", w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		if i < len(bj.Workloads) && (bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why) {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
	}

	if len(bj.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program has %d", len(bj.EndToEnd), len(endToEnd))
	}
	haveSetup := false
	for i, m := range endToEnd {
		checkName("end-to-end", m.name)
		if !unitRE.MatchString(m.unit) {
			t.Errorf("%s: unit %q", m.name, m.unit)
		}
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
		haveSetup = haveSetup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
		if i < len(bj.EndToEnd) {
			if got := bj.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
				t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, got, m)
			}
		}
	}
	if !haveSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(bj.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program has %d", len(bj.PerLayer), len(perLayer))
	}
	if len(perLayer) != 87 {
		t.Errorf("the benchmark defines 87 per-layer metrics, the program has %d", len(perLayer))
	}
	for i, m := range perLayer {
		checkName("per-layer", m.name)
		if !unitRE.MatchString(m.unit) {
			t.Errorf("%s: unit %q", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better %q", m.name, m.better)
		}
		if i < len(bj.PerLayer) {
			if got := bj.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
				t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, got, m)
			}
		}
	}
}

// TestEveryRungHasOneWorkload checks that each isolation rung is measured
// in exactly one workload's traced run and that every selection resolves.
func TestEveryRungHasOneWorkload(t *testing.T) {
	assigned := map[string]int{}
	for _, w := range workloads {
		for _, name := range w.rungs {
			assigned[name]++
		}
	}
	for _, r := range rungs {
		if assigned[r.metrics[0]] != 1 {
			t.Errorf("rung %s is assigned to %d workloads", r.metrics[0], assigned[r.metrics[0]])
		}
		delete(assigned, r.metrics[0])
	}
	for name := range assigned {
		t.Errorf("a workload selects %s, which no rung yields", name)
	}
}

// A canned `go tool pprof -top` listing (flat, flat%, sum%, cum, cum%, name)
// of the kind the simulator's profiles produce.
const cannedTop = `
     1.20s 24.00% 24.00%      1.30s 26.00%  albatross/internal/apps/tsp.dfs
     0.60s 12.00% 36.00%      0.60s 12.00%  runtime.futex
     0.40s  8.00% 44.00%      0.90s 18.00%  albatross/internal/sim.(*Engine).Run
     0.35s  7.00% 51.00%      0.35s  7.00%  runtime.casgstatus
     0.30s  6.00% 57.00%      0.50s 10.00%  runtime.mallocgc
     0.25s  5.00% 62.00%      0.25s  5.00%  albatross/internal/netsim.(*wanTransit).forward
     0.20s  4.00% 66.00%      0.20s  4.00%  albatross/internal/orca.(*RTS).SendDataID
     0.20s  4.00% 70.00%      0.20s  4.00%  runtime.scanobject
     0.20s  4.00% 74.00%      0.40s  8.00%  runtime.chansend
     0.15s  3.00% 77.00%      0.15s  3.00%  albatross/internal/coll.(*Comm).AllReduce
     0.15s  3.00% 80.00%      0.15s  3.00%  albatross/internal/core.(*Combiner).SendID
     0.10s  2.00% 82.00%      0.10s  2.00%  albatross/internal/cluster.(*Graph).Next
     0.10s  2.00% 84.00%      0.10s  2.00%  albatross/internal/faults.(*Injector).WANTransit
     0.30s  6.00% 90.00%      0.30s  6.00%  runtime.memmove
     0.30s  6.00% 96.00%      0.30s  6.00%  fmt.(*pp).printValue
     0.20s  4.00%   100%      0.20s  4.00%  main.(*env).execRun
`

func TestProfileBucketer(t *testing.T) {
	flat := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSpace(cannedTop), "\n") {
		f := strings.Fields(line)
		secs, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "s"), 64)
		if err != nil {
			t.Fatal(err)
		}
		flat[f[5]] += int64(math.Round(secs * 100))
	}
	got := cpuShares(flat)
	want := map[string]float64{
		"apps": 0.24, "sim": 0.08, "netsim": 0.05, "orca": 0.04, "coll": 0.03, "core": 0.03,
		"cluster": 0.02, "faults": 0.02, "runtime.sched": 0.23, "runtime.gc": 0.10, "other": 0.16,
	}
	sum := 0.0
	for _, b := range cpuBuckets {
		sum += got[b]
		if d := got[b] - want[b]; d < -1e-9 || d > 1e-9 {
			t.Errorf("%s share = %.4f, want %.4f", b, got[b], want[b])
		}
	}
	if sum < 0.9999 || sum > 1.0001 {
		t.Errorf("shares sum to %v", sum)
	}
}

// TestFlatSamplesDecodes feeds the decoder a hand-encoded profile: two
// functions, one location with an inlined leaf, samples in packed and
// unpacked form.
func TestFlatSamplesDecodes(t *testing.T) {
	varint := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	field := func(num int, body []byte) []byte {
		return append(append(varint(uint64(num)<<3|2), varint(uint64(len(body)))...), body...)
	}
	num := func(n int, v uint64) []byte { return append(varint(uint64(n)<<3), varint(v)...) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	var p []byte
	for _, s := range []string{"", "samples", "count", "runtime.futex", "albatross/internal/sim.(*Engine).Run"} {
		p = append(p, field(6, []byte(s))...)
	}
	p = append(p, field(5, cat(num(1, 1), num(2, 3)))...) // function 1 = runtime.futex
	p = append(p, field(5, cat(num(1, 2), num(2, 4)))...) // function 2 = sim.(*Engine).Run
	// location 1: futex inlined into Run (leaf line first); location 2: Run
	p = append(p, field(4, cat(num(1, 1), field(4, num(1, 1)), field(4, num(1, 2))))...)
	p = append(p, field(4, cat(num(1, 2), field(4, num(1, 2))))...)
	// sample A: stack [1 2 2], values [5 50], packed; sample B: stack [2], value 7, unpacked
	p = append(p, field(2, cat(field(1, cat(varint(1), varint(2), varint(2))), field(2, cat(varint(5), varint(50)))))...)
	p = append(p, field(2, cat(num(1, 2), num(2, 7)))...)

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	flat, err := flatSamples(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(flat) != 2 || flat["runtime.futex"] != 5 || flat["albatross/internal/sim.(*Engine).Run"] != 7 {
		t.Errorf("flat = %v, want futex 5 and Run 7", flat)
	}
	if _, err := flatSamples([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without an error")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) of each input
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	baseValues := map[string]float64{"wall_s": 0.30, "simsec_per_wallsec": 16, "allocs_per_pass": 140000,
		"alloc_mb_per_pass": 12, "peak_rss_mb": 10, "setup_s": 0.4}
	// set builds a one-workload result file; change moves one metric by the
	// given share of its bound in its worse direction (negative: better).
	set := func(changed string, boundShare float64) resultFile {
		wr := workloadResult{Name: "sim-apps", EndToEnd: map[string]metric{failShare: {}},
			Digests: map[string]string{"water-orig": "00000000aaaaaaaa"}}
		for _, def := range endToEnd {
			v := baseValues[def.name]
			if def.name == changed {
				step := boundShare * def.bound
				if def.better == "higher" {
					step = -step
				}
				v *= 1 + step
			}
			wr.EndToEnd[def.name] = metric{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 9}
		}
		return resultFile{Workloads: []workloadResult{wr}}
	}
	base := set("", 0)
	check := func(name string, b resultFile, regressions int, want ...string) {
		t.Helper()
		var out bytes.Buffer
		if got := compareResults(&out, base, b); got != regressions {
			t.Errorf("%s: %d regressions, want %d\n%s", name, got, regressions, out.String())
		}
		for _, w := range want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s: report lacks %q\n%s", name, w, out.String())
			}
		}
		if regressions == 0 && strings.Contains(out.String(), "regressed") {
			t.Errorf("%s: report says regressed\n%s", name, out.String())
		}
	}

	check("same", set("", 0), 0)
	for _, def := range endToEnd {
		check(def.name+" worse within its bound", set(def.name, 0.6), 0)
		check(def.name+" worse beyond its bound", set(def.name, 1.4), 1, def.name, "regressed")
		check(def.name+" better", set(def.name, -2), 0)
	}

	noisy := set("wall_s", 1.4)
	noisy.Workloads[0].Noisy = true
	check("a noisy side is unresolved", noisy, 0, "unresolved")

	// quartiles further apart than the bound cannot resolve a difference either
	wide := set("wall_s", 1.4)
	m := wide.Workloads[0].EndToEnd["wall_s"]
	m.Q1, m.Q3 = m.Value*0.8, m.Value*1.2
	wide.Workloads[0].EndToEnd["wall_s"] = m
	check("a wide spread is unresolved", wide, 0, "unresolved")

	failing := set("", 0)
	failing.Workloads[0].EndToEnd[failShare] = metric{Value: 0.01}
	check("fail share rose", failing, 1, failShare, "regressed")

	// a changed digest is reported, not failed
	changed := set("", 0)
	changed.Workloads[0].Digests["water-orig"] = "11111111bbbbbbbb"
	check("changed digest", changed, 0, "sim_changed")
}

// TestSmokeSimApps makes one warm-up and one short traced run of sim-apps
// at a shrunken run list, through the same session code the workload
// processes use.
func TestSmokeSimApps(t *testing.T) {
	full, err := workloadByName("sim-apps")
	if err != nil {
		t.Fatal(err)
	}
	w := *full
	w.runs = []runSpec{{"water", false}, {"acp", true}}
	w.rungs = nil
	for _, seed := range []uint64{0, 7} {
		e, err := newEnv(&w, seed)
		if err != nil {
			t.Fatal(err)
		}
		s := &session{env: e, reference: map[string]uint64{}}
		if ps := s.pass(0, nil); ps.wall <= 0 || ps.virtual <= 0 || ps.mallocs == 0 {
			t.Errorf("seed %d: warm-up pass measured %+v", seed, ps)
		}
		tracePath := filepath.Join(t.TempDir(), "trace.json")
		if err := s.traced(0, tracePath); err != nil {
			t.Fatal(err)
		}
		if s.res.Failed != 0 || s.res.Attempted != 2*(1+untracedPasses+minTracedPasses) {
			t.Errorf("seed %d: %d of %d runs failed: %v", seed, s.res.Failed, s.res.Attempted, s.res.Errors)
		}
		for _, m := range perLayer {
			if _, ok := s.res.Layers[m.name]; !ok {
				t.Errorf("traced run did not report %s", m.name)
			}
		}
		if len(s.res.Layers) != len(perLayer) {
			t.Errorf("traced run reported %d metrics, want %d", len(s.res.Layers), len(perLayer))
		}
		for _, name := range []string{"sim.run_ms", "apps.build_ms", "apps.water-orig_ms", "apps.acp-opt_ms",
			"sim.events", "sim.virtual_s", "sim.virtual_busy_share", "netsim.inter_msgs", "orca.rpcs"} {
			if s.res.Layers[name] <= 0 {
				t.Errorf("seed %d: %s = %v, want > 0", seed, name, s.res.Layers[name])
			}
		}
		var trace struct {
			TraceEvents []struct{ Name string } `json:"traceEvents"`
		}
		data, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &trace); err != nil {
			t.Fatal(err)
		}
		if want := minTracedPasses * 2 * 6; len(trace.TraceEvents) != want {
			t.Errorf("trace file holds %d events, want %d", len(trace.TraceEvents), want)
		}
	}
}
