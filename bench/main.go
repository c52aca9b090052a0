// Command bench is the repository's benchmark: seven workloads of verified
// application runs, end-to-end metrics per workload from timed passes, and
// a traced run per workload that attributes host time to layers from the
// outside. See README.md in this directory and BENCHMARK.json at the root.
//
//	go run ./bench                                   # a full set: every workload, timed then traced
//	go run ./bench -workload msg-storm -trace 0      # one timed run
//	go run ./bench -compare bench/out/a.json bench/out/b.json
//
// Run it from the repository root: topology files are read relative to it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

var processStart = time.Now()

const (
	outDir = "bench/out"
	// childProcs pins every workload process: at most two OS threads busy,
	// which is the reference host's core count and the sharded workload's
	// LP count.
	childProcs = "2"
	// runTimeout keeps one timed or traced run, all its processes together,
	// inside the driver's 180 s.
	runTimeout = 170 * time.Second
	// A timed run splits --seconds over timedProcs fresh processes, each of
	// which sets up and then passes for its share; their samples are pooled.
	// Pooling averages out what differs from process to process on one host
	// (thread and page placement) and gives setup_s a median. A workload
	// whose first set-up takes over cheapSetup seconds gets two processes,
	// the second with two shares: a third set-up would cost a heavy pass.
	timedProcs = 3
	cheapSetup = 1.0
	// noisySpread flags a workload whose wall_s quartiles are this far
	// apart, relative to the median, so the run can be repeated.
	noisySpread = 0.10
)

// host stamps a result with the machine it was taken on.
type host struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS string `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Name      string            `json:"name"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Noisy     bool              `json:"noisy"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	// Samples are the pooled observations behind EndToEnd: one per timed
	// pass, or one per process for setup_s and peak_rss_mb.
	Samples map[string][]float64 `json:"samples,omitempty"`
	Digests map[string]string    `json:"digests,omitempty"`
}

// resultFile is what a run writes under bench/out and -compare reads.
type resultFile struct {
	Host      host             `json:"host"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Uint64("seed", 0, "workload seed; 0 keeps every application's default instance")
		seconds = flag.Float64("seconds", 10, "how long a timed run measures")
		trace   = flag.Int("trace", -1, "0: timed run, 1: traced run, -1: both")
		out     = flag.String("out", "", "result file (default bench/out/<workload>[.layers].json)")
		compare = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		child   = flag.String("child", "", "internal: run one workload process (timed, traced or setup)")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = compareMain(flag.Args())
	case *child != "":
		err = childMain(*child, *name, *seed, *seconds)
	default:
		err = orchestrate(*name, *seed, *seconds, *trace, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// childMain runs one workload in this process and prints its childResult.
func childMain(mode, name string, seed uint64, seconds float64) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	res, err := runChild(processStart, w, seed, mode, seconds, outDir)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// spawn runs one workload process and decodes its result.
func spawn(ctx context.Context, mode, name string, seed uint64, seconds float64) (childResult, error) {
	var res childResult
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", name,
		"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+childProcs)
	cmd.Stderr = os.Stderr
	data, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("%s process of %s: %w", mode, name, err)
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return res, fmt.Errorf("%s process of %s: %w", mode, name, err)
	}
	return res, nil
}

// orchestrate runs the selected workloads, each part in a fresh process,
// one at a time, prints their metrics and writes the result file.
func orchestrate(name string, seed uint64, seconds float64, trace int, out string) error {
	selected := workloads
	if name != "all" {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		selected = []workload{*w}
	}
	file := resultFile{Host: hostStamp(), Seed: seed, Seconds: seconds}
	for i := range selected {
		w := &selected[i]
		res := workloadResult{Name: w.name}
		if trace != 1 {
			if err := timedRun(w, seed, seconds, &res); err != nil {
				return err
			}
			printResult(&res, res.EndToEnd, append([]string{failShare}, metricNames(endToEnd)...))
		}
		if trace != 0 {
			if err := tracedRun(w, seed, &res); err != nil {
				return err
			}
			printResult(&res, res.PerLayer, metricNames(perLayer))
		}
		file.Workloads = append(file.Workloads, res)
	}
	if out == "" {
		suffix := map[int]string{0: ".json", 1: ".layers.json", -1: ".set.json"}[trace]
		out = filepath.Join(outDir, name+suffix)
	}
	return writeJSON(out, file)
}

func (r *workloadResult) absorb(c childResult) {
	r.Attempted += c.Attempted
	r.Failed += c.Failed
	r.Errors = append(r.Errors, c.Errors...)
}

// timedRun makes the untraced run of a workload over several processes and
// pools their samples.
func timedRun(w *workload, seed uint64, seconds float64, res *workloadResult) error {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	samples := map[string][]float64{}
	share := seconds / timedProcs
	for left := timedProcs; left > 0; {
		shares := 1
		if len(samples["setup_s"]) == 1 && samples["setup_s"][0] > cheapSetup {
			shares = left
		}
		c, err := spawn(ctx, "timed", w.name, seed, float64(shares)*share)
		if err != nil {
			return err
		}
		left -= shares
		res.absorb(c)
		res.Digests = c.Digests
		for name, v := range c.Samples {
			samples[name] = append(samples[name], v...)
		}
		samples["setup_s"] = append(samples["setup_s"], c.SetupS)
		samples["peak_rss_mb"] = append(samples["peak_rss_mb"], c.PeakRSSMB)
	}
	res.Samples = samples
	res.EndToEnd = map[string]metric{}
	for _, m := range endToEnd {
		res.EndToEnd[m.name] = summarize(samples[m.name], m.unit)
	}
	res.EndToEnd[failShare] = summarize([]float64{float64(res.Failed) / float64(res.Attempted)}, "ratio")
	res.Noisy = res.EndToEnd["wall_s"].spread() > noisySpread
	return nil
}

// tracedRun makes the traced run of a workload in one process.
func tracedRun(w *workload, seed uint64, res *workloadResult) error {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	c, err := spawn(ctx, "traced", w.name, seed, 0)
	if err != nil {
		return err
	}
	res.absorb(c)
	if res.Digests == nil {
		res.Digests = c.Digests
	}
	res.PerLayer = map[string]metric{}
	for _, m := range perLayer {
		v, ok := c.Layers[m.name]
		if !ok {
			return fmt.Errorf("traced run of %s did not report %s", w.name, m.name)
		}
		res.PerLayer[m.name] = metric{Value: v, Unit: m.unit, Q1: v, Q3: v, N: 1}
	}
	return nil
}

func metricNames(defs []metricDef) []string {
	var names []string
	for _, m := range defs {
		names = append(names, m.name)
	}
	return names
}

// printResult prints one run's metrics for people and then, as the last
// line, the one JSON object the driver reads.
func printResult(res *workloadResult, metrics map[string]metric, order []string) {
	fmt.Printf("== %s: %d runs attempted, %d failed\n", res.Name, res.Attempted, res.Failed)
	for _, e := range res.Errors {
		fmt.Printf("   error: %s\n", e)
	}
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]map[string]any{}}
	for _, name := range order {
		m := metrics[name]
		if m.N > 1 {
			fmt.Printf("   %-28s %14.6g %-8s q1 %.6g  q3 %.6g  n=%d\n", name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
		} else {
			fmt.Printf("   %-28s %14.6g %s\n", name, m.Value, m.Unit)
		}
		if name != failShare {
			line.Metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	if res.Noisy {
		fmt.Printf("   noisy: wall_s quartiles are more than %.0f%% of the median apart; repeat the run\n", noisySpread*100)
	}
	data, _ := json.Marshal(line) // a struct of plain values cannot fail to encode
	fmt.Printf("%s\n", data)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// hostStamp records the facts a number needs to count: cores, GOMAXPROCS of
// the workload processes, CPU model, Go version, commit.
func hostStamp() host {
	h := host{Cores: runtime.NumCPU(), GOMAXPROCS: childProcs, Go: runtime.Version(), CPU: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(data))
	}
	return h
}
