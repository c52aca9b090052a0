// Customapp: write your own parallel program against the library's public
// API and wide-area-optimize it with the techniques from the paper.
//
// The program computes a distributed histogram: every worker scans a slice
// of records and accumulates counts into a shared result owned by node 0 —
// the classic all-to-one pattern of the paper's ATPG application.
//
//   - naive version: one RPC per local batch from every worker;
//
//   - optimized version: cluster-level reduction (core.ClusterReducer), so
//     each remote cluster sends exactly one combined update over the WAN.
//
//     go run ./examples/customapp
package main

import (
	"fmt"
	"log"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/orca"
	"albatross/internal/rng"
)

const (
	records  = 1 << 17
	buckets  = 64
	batches  = 16 // each worker reports this many partial updates
	clusters = 4
	perClust = 8
)

func main() {
	fmt.Println("Custom application: distributed histogram on a 4-cluster WAN")
	fmt.Println()
	naiveT, naiveWAN, h1 := run(false)
	optT, optWAN, h2 := run(true)
	for b := range h1 {
		if h1[b] != h2[b] {
			log.Fatalf("histograms disagree at bucket %d", b)
		}
	}
	fmt.Printf("%-34s %12v  %6d WAN messages\n", "naive all-to-one RPCs:", naiveT.Round(time.Microsecond), naiveWAN)
	fmt.Printf("%-34s %12v  %6d WAN messages\n", "cluster-level reduction:", optT.Round(time.Microsecond), optWAN)
	fmt.Printf("\nSame histogram, %.1fx less wide-area traffic.\n", float64(naiveWAN)/float64(optWAN))
}

func run(optimized bool) (time.Duration, int64, [buckets]int64) {
	sys := core.NewSystem(core.Config{
		Topology: cluster.DAS(clusters, perClust),
		Params:   cluster.DASParams(),
	})
	p := sys.Topo.Compute()

	// The shared result lives on node 0.
	type histState struct{ counts [buckets]int64 }
	result := sys.RTS.NewObject("histogram", 0, &histState{})
	addOp := func(delta [buckets]int64) orca.Op {
		return orca.Op{Name: "Add", ArgBytes: 8 * buckets, ResBytes: 4,
			Apply: func(s any) any {
				st := s.(*histState)
				for b, v := range delta {
					st.counts[b] += v
				}
				return nil
			}}
	}

	var reducer *core.ClusterReducer
	hist := sys.RTS.InternTag(orca.Tag{Op: "hist"}) // messages go by interned tag
	if optimized {
		reducer = core.NewClusterReducer(sys, "hist", func(acc, v any) any {
			d := v.([buckets]int64)
			if acc == nil {
				return d
			}
			a := acc.([buckets]int64)
			for b := range a {
				a[b] += d[b]
			}
			return a
		})
	}

	// Node 0 folds reduced contributions into the shared object.
	if optimized {
		expect := 0
		contributors := make([]cluster.NodeID, 0, p-1)
		for r := 1; r < p; r++ {
			contributors = append(contributors, cluster.NodeID(r))
		}
		expect = reducer.ExpectedMessages(0, contributors)
		sys.SpawnAt(0, "collector", func(w *core.Worker) {
			for i := 0; i < expect; i++ {
				d := w.RecvID(hist).([buckets]int64)
				w.Invoke(result, addOp(d))
			}
		})
	}

	sys.SpawnWorkers("scanner", func(w *core.Worker) {
		r := rng.New(uint64(w.Rank()) + 7)
		per := records / p / batches
		for batch := 0; batch < batches; batch++ {
			var delta [buckets]int64
			for i := 0; i < per; i++ {
				delta[r.Intn(buckets)]++
			}
			w.Compute(time.Duration(per) * 200 * time.Nanosecond)
			if !optimized {
				w.Invoke(result, addOp(delta)) // possibly a WAN RPC
				continue
			}
			if w.Rank() == 0 {
				w.Invoke(result, addOp(delta)) // local fold
				continue
			}
			if batch < batches-1 {
				// Accumulate locally; only the final batch is reported,
				// like ATPG's optimized statistics.
				continue
			}
			var all [buckets]int64
			full := rng.New(uint64(w.Rank()) + 7)
			for b := 0; b < batches; b++ {
				for i := 0; i < per; i++ {
					all[full.Intn(buckets)]++
				}
			}
			nLocal := perClust
			if w.Cluster() == 0 {
				nLocal-- // rank 0 reports directly
			}
			reducer.Put(w, 0, hist, 8*buckets, all, nLocal)
		}
	})

	m, err := sys.Run()
	if err != nil {
		log.Fatal(err)
	}
	st := result.State().(*histState)
	var total int64
	for _, v := range st.counts {
		total += v
	}
	want := int64(records / p / batches * batches * p)
	if total != want {
		log.Fatalf("histogram counted %d records, want %d", total, want)
	}
	return m.Elapsed, m.Net.TotalInter().Msgs, st.counts
}
