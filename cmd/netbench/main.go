// Command netbench measures the simulated platform's communication
// primitives, reproducing the paper's Table 1 and adding message-size
// sweeps for both network levels.
//
//	netbench            # Table 1 plus latency/bandwidth sweeps
//	netbench -sweep=false
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/harness"
	"albatross/internal/orca"
)

func main() {
	sweep := flag.Bool("sweep", true, "also print message-size sweeps")
	flag.Parse()

	rep, err := harness.Table1(&harness.Session{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Render())

	if !*sweep {
		return
	}
	fmt.Println()
	fmt.Println("Round-trip time by message size (request size = reply size):")
	fmt.Printf("%10s %14s %14s\n", "bytes", "LAN", "WAN")
	for _, size := range []int{0, 64, 1024, 8192, 65536, 1 << 20} {
		lan := rtt(1, size)
		wan := rtt(2, size)
		fmt.Printf("%10d %14v %14v\n", size, lan.Round(time.Microsecond), wan.Round(time.Microsecond))
	}
}

// rtt measures one request/reply of the given payload size in each
// direction; with two clusters the peer is across the WAN.
func rtt(clusters int, size int) time.Duration {
	sys := core.NewSystem(core.Config{
		Topology: cluster.DAS(clusters, 2),
		Params:   cluster.DASParams(),
	})
	peer := cluster.NodeID(1)
	if clusters == 2 {
		peer = 2
	}
	mb := sys.RTS.RegisterService(peer, "echo")
	sys.SpawnAt(peer, "server", func(w *core.Worker) {
		w.P.SetDaemon(true)
		for {
			req := orca.NextRequest(w.P, mb)
			req.Reply(size, req.Payload)
		}
	})
	var elapsed time.Duration
	sys.SpawnAt(0, "client", func(w *core.Worker) {
		start := w.P.Now()
		w.Call(peer, "echo", size, "ping")
		elapsed = w.P.Now() - start
	})
	if _, err := sys.Run(); err != nil {
		log.Fatal(err)
	}
	return elapsed
}
