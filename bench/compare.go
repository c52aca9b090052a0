package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareMain implements -compare A.json B.json: A is the base (the parent
// commit, or the first of two sets of one commit), B the candidate.
func compareMain(args []string) error {
	if len(args) != 2 {
		return errors.New("-compare needs two result files")
	}
	var files [2]resultFile
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if regressions := compareResults(os.Stdout, files[0], files[1]); regressions > 0 {
		return fmt.Errorf("%d regressed", regressions)
	}
	return nil
}

// verdict applies one metric's bound. A side that is noisy (the workload's
// flag, which is about its pass times), or whose own quartiles are further
// apart than the bound, cannot resolve a difference of that size either way.
func verdict(def metricDef, a, b metric, noisy bool) (change float64, status string) {
	if a.Value != 0 {
		change = (b.Value - a.Value) / a.Value
	}
	worse := change
	if def.better == "higher" {
		worse = -change
	}
	switch {
	case noisy || a.spread() > def.bound || b.spread() > def.bound:
		return change, "unresolved"
	case worse > def.bound:
		return change, "regressed"
	}
	return change, "ok"
}

// compareResults prints one row per workload and end-to-end metric present
// in both files and returns how many regressed. fail_share regresses on any
// rise. A digest that differs is reported as sim_changed, not as a failure:
// pinning simulated bytes is the goldens' job.
func compareResults(w io.Writer, a, b resultFile) int {
	if a.Host != b.Host {
		fmt.Fprintf(w, "hosts differ:\n  A %+v\n  B %+v\n", a.Host, b.Host)
	}
	if a.Seed != b.Seed {
		fmt.Fprintf(w, "seeds differ (A %d, B %d): search applications do seed-dependent work, numbers compare only at equal seed\n", a.Seed, b.Seed)
	}
	byName := map[string]workloadResult{}
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	regressions := 0
	fmt.Fprintf(w, "%-18s %-20s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "change", "bound", "status")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok || wa.EndToEnd == nil || wb.EndToEnd == nil {
			continue
		}
		for _, def := range endToEnd {
			ma, mb := wa.EndToEnd[def.name], wb.EndToEnd[def.name]
			timing := def.name == "wall_s" || def.name == "simsec_per_wallsec"
			change, status := verdict(def, ma, mb, timing && (wa.Noisy || wb.Noisy))
			if status == "regressed" {
				regressions++
			}
			fmt.Fprintf(w, "%-18s %-20s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n",
				wa.Name, def.name, ma.Value, mb.Value, change*100, def.bound*100, status)
		}
		fa, fb := wa.EndToEnd[failShare].Value, wb.EndToEnd[failShare].Value
		status := "ok"
		if fb > fa {
			status = "regressed"
			regressions++
		}
		fmt.Fprintf(w, "%-18s %-20s %14.6g %14.6g %8s %6s  %s\n", wa.Name, failShare, fa, fb, "", "0", status)
		runs := make([]string, 0, len(wa.Digests))
		for run := range wa.Digests {
			runs = append(runs, run)
		}
		sort.Strings(runs)
		for _, run := range runs {
			if d, ok := wb.Digests[run]; ok && d != wa.Digests[run] {
				fmt.Fprintf(w, "%-18s %-20s %14s %14s %8s %6s  sim_changed\n", wa.Name, run, wa.Digests[run][:8], d[:8], "", "")
			}
		}
	}
	return regressions
}
