package main

import (
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/harness"
)

// loadTopology resolves a -topo value: a uniform shape CxN such as 4x16 (C
// clusters of N compute nodes with the DAS parameters), or the path of a
// declarative JSON configuration. It also returns the label reports name the
// platform by: the shape itself, or the file's base name.
func loadTopology(arg string) (cluster.Topology, string, error) {
	var topo cluster.Topology
	var err error
	name := arg
	cs, ns, _ := strings.Cut(arg, "x")
	c, errC := strconv.Atoi(cs)
	n, errN := strconv.Atoi(ns)
	if errC == nil && errN == nil {
		topo = cluster.DAS(c, n)
		err = topo.Validate()
	} else {
		name = filepath.Base(arg)
		topo, err = cluster.LoadTopology(arg)
	}
	if err != nil {
		return cluster.Topology{}, "", fmt.Errorf("-topo %s: %w", arg, err)
	}
	return topo, name, nil
}

// runTopo runs the selected applications (both variants, honoring -shards and
// the transport flags) on the -topo platform and renders TopoReport.
func runTopo(out io.Writer, s *harness.Session, topoArg, appsCSV, csvDir string) error {
	topo, _, err := loadTopology(topoArg)
	if err != nil {
		return err
	}
	var apps []harness.AppSpec
	if appsCSV == "all" {
		apps = harness.Apps
	} else {
		for _, name := range strings.Split(appsCSV, ",") {
			a, err := harness.AppByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			apps = append(apps, a)
		}
	}
	start := time.Now()
	rep, err := harness.TopoReport(s, topo, apps)
	if err != nil {
		return err
	}
	fmt.Fprint(out, rep.Render())
	if err := writeCSV(out, csvDir, "topo", rep); err != nil {
		return err
	}
	fmt.Fprintf(out, "(topo took %.1fs wall clock; all results verified against sequential references)\n",
		time.Since(start).Seconds())
	return nil
}
