package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/harness"
)

// runTopo loads a declarative topology configuration, runs the selected
// applications on it (both variants, honoring -shards and the transport
// flags), and renders the summary plus per-link-class statistics tables.
func runTopo(out io.Writer, s *harness.Session, path, appsCSV, csvDir string) error {
	topo, err := cluster.LoadTopology(path)
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
